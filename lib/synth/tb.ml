open Selest_util
open Selest_db

let default_patients = 2_500
let default_contacts = 19_000
let default_strains = 2_000

(* Contact types. *)
let ct_household = 0
and _ct_roommate = 1
and ct_coworker = 2
and _ct_friend = 3
and ct_healthcare = 4

let schema =
  Schema.create
    [ Schema.table_schema ~name:"strain"
        ~attrs:
          [ ("Unique", Value.labeled [| "no"; "yes" |]);
            ("DrugResist", Value.labeled ~ordinal:true [| "none"; "mono"; "multi" |]);
            ("Lineage", Value.ints 6) ]
        ();
      Schema.table_schema ~name:"patient"
        ~attrs:
          [ ("Age", Value.labeled ~ordinal:true
               [| "0-19"; "20-34"; "35-49"; "50-64"; "65-79"; "80+" |]);
            ("Gender", Value.labeled [| "m"; "f" |]);
            ("HIV", Value.labeled [| "neg"; "pos" |]);
            ("USBorn", Value.labeled [| "no"; "yes" |]);
            ("Homeless", Value.labeled [| "no"; "yes" |]);
            ("Site", Value.labeled [| "pulmonary"; "extrapulmonary"; "both"; "unknown" |]) ]
        ~fks:[ ("strain", "strain") ] ();
      Schema.table_schema ~name:"contact"
        ~attrs:
          [ ("Contype", Value.labeled
               [| "household"; "roommate"; "coworker"; "friend"; "healthcare" |]);
            ("Age", Value.labeled ~ordinal:true
               [| "0-19"; "20-34"; "35-49"; "50-64"; "65-79"; "80+" |]);
            ("Infected", Value.labeled [| "no"; "yes" |]);
            ("Gender", Value.labeled [| "m"; "f" |]) ]
        ~fks:[ ("patient", "patient") ] () ]

let sample_patient_age rng = Rng.categorical rng [| 8.0; 22.0; 28.0; 20.0; 14.0; 8.0 |]

let sample_contype rng ~patient_age =
  (* Elderly patients with roommates are rare (the paper's Sec. 3.1
     example); the young mix across social contact types. *)
  let w =
    if patient_age >= 4 then [| 46.0; 2.0; 3.0; 14.0; 35.0 |]
    else if patient_age <= 1 then [| 22.0; 24.0; 22.0; 26.0; 6.0 |]
    else [| 30.0; 12.0; 28.0; 22.0; 8.0 |]
  in
  Rng.categorical rng w

let sample_contact_age rng ~contype ~patient_age =
  if contype = ct_household then
    (* Household members cluster around (and below) the patient's age. *)
    Gen.normal_bucket rng ~mean:(float_of_int patient_age -. 0.8) ~sd:1.3 ~card:6
  else if contype = ct_coworker then Gen.normal_bucket rng ~mean:2.2 ~sd:1.0 ~card:6
  else if contype = ct_healthcare then Gen.normal_bucket rng ~mean:2.0 ~sd:0.9 ~card:6
  else Gen.normal_bucket rng ~mean:(float_of_int patient_age) ~sd:1.2 ~card:6

let infection_prob ~contype ~patient_hiv =
  let base =
    match contype with
    | 0 -> 0.34 (* household *)
    | 1 -> 0.40 (* roommate *)
    | 2 -> 0.10 (* coworker *)
    | 3 -> 0.18 (* friend *)
    | _ -> 0.06 (* healthcare *)
  in
  if patient_hiv = 1 && contype <= 1 then Float.min 0.9 (base +. 0.15) else base

let generate ?(patients = default_patients) ?(contacts = default_contacts)
    ?(strains = default_strains) ~seed () =
  let rng = Rng.create (seed lxor 0x7B) in
  (* --- strains: lineage/resistance; Unique is derived after assignment. *)
  let n_cluster = max 1 (strains / 4) in
  let s_lineage = Array.make strains 0 in
  let s_resist = Array.make strains 0 in
  for s = 0 to strains - 1 do
    if s < n_cluster then begin
      (* Locally circulating strains: two dominant lineages, some MDR. *)
      s_lineage.(s) <- Rng.categorical rng [| 48.0; 32.0; 8.0; 6.0; 4.0; 2.0 |];
      s_resist.(s) <- Rng.categorical rng [| 80.0; 14.0; 6.0 |]
    end
    else begin
      (* Indigenous strains brought by foreign-born patients. *)
      s_lineage.(s) <- Rng.categorical rng [| 4.0; 6.0; 22.0; 26.0; 24.0; 18.0 |];
      s_resist.(s) <- Rng.categorical rng [| 70.0; 18.0; 12.0 |]
    end
  done;
  (* --- patients ------------------------------------------------------- *)
  let p_age = Array.make patients 0 in
  let p_gender = Array.make patients 0 in
  let p_hiv = Array.make patients 0 in
  let p_usborn = Array.make patients 0 in
  let p_homeless = Array.make patients 0 in
  let p_site = Array.make patients 0 in
  let p_strain = Array.make patients 0 in
  let cluster_cdf = Rng.cdf (Gen.zipf n_cluster 1.05) in
  let next_unique = ref n_cluster in
  for p = 0 to patients - 1 do
    let age = sample_patient_age rng in
    let usborn = if Rng.float rng < 0.48 then 1 else 0 in
    let homeless =
      if usborn = 1 && age >= 1 && age <= 3 then (if Rng.float rng < 0.18 then 1 else 0)
      else if Rng.float rng < 0.05 then 1
      else 0
    in
    let hiv =
      let base = if homeless = 1 then 0.22 else if age >= 1 && age <= 2 then 0.12 else 0.04 in
      if Rng.float rng < base then 1 else 0
    in
    let site =
      if hiv = 1 then Rng.categorical rng [| 38.0; 30.0; 26.0; 6.0 |]
      else Rng.categorical rng [| 68.0; 18.0; 8.0; 6.0 |]
    in
    (* Join skew (Sec. 3.2): US-born patients catch locally circulating,
       non-unique strains about 3x as often as foreign-born patients, who
       typically arrive with their own unique strain. *)
    let clustered =
      if usborn = 1 then Rng.float rng < 0.78 else Rng.float rng < 0.30
    in
    let strain =
      if clustered || !next_unique >= strains then
        Rng.draw rng cluster_cdf
      else begin
        let s = !next_unique in
        incr next_unique;
        s
      end
    in
    p_age.(p) <- age;
    p_gender.(p) <- (if Rng.float rng < 0.62 then 0 else 1);
    p_hiv.(p) <- hiv;
    p_usborn.(p) <- usborn;
    p_homeless.(p) <- homeless;
    p_site.(p) <- site;
    p_strain.(p) <- strain
  done;
  (* Unique = strain observed in at most one patient. *)
  let strain_count = Array.make strains 0 in
  Array.iter (fun s -> strain_count.(s) <- strain_count.(s) + 1) p_strain;
  let s_unique = Array.map (fun c -> if c <= 1 then 1 else 0) strain_count in
  (* --- contacts ------------------------------------------------------- *)
  (* Join skew contact→patient: middle-aged and homeless patients name many
     more contacts than the elderly. *)
  let contact_weight p =
    let base =
      match p_age.(p) with
      | 0 -> 6.0
      | 1 -> 10.0
      | 2 -> 12.0
      | 3 -> 7.0
      | 4 -> 3.0
      | _ -> 1.5
    in
    base *. (if p_homeless.(p) = 1 then 1.8 else 1.0)
  in
  let c_patient =
    Gen.assign_children rng ~parent_count:patients ~total:contacts ~weight:contact_weight
  in
  let c_type = Array.make contacts 0 in
  let c_age = Array.make contacts 0 in
  let c_infected = Array.make contacts 0 in
  let c_gender = Array.make contacts 0 in
  for c = 0 to contacts - 1 do
    let p = c_patient.(c) in
    let contype = sample_contype rng ~patient_age:p_age.(p) in
    c_type.(c) <- contype;
    c_age.(c) <- sample_contact_age rng ~contype ~patient_age:p_age.(p);
    c_infected.(c) <-
      (if Rng.float rng < infection_prob ~contype ~patient_hiv:p_hiv.(p) then 1 else 0);
    c_gender.(c) <- (if Rng.float rng < 0.5 then 0 else 1)
  done;
  let strain_table =
    Table.create (Schema.find_table schema "strain")
      ~cols:[| s_unique; s_resist; s_lineage |] ~fk_cols:[||]
  in
  let patient_table =
    Table.create (Schema.find_table schema "patient")
      ~cols:[| p_age; p_gender; p_hiv; p_usborn; p_homeless; p_site |]
      ~fk_cols:[| p_strain |]
  in
  let contact_table =
    Table.create (Schema.find_table schema "contact")
      ~cols:[| c_type; c_age; c_infected; c_gender |]
      ~fk_cols:[| c_patient |]
  in
  Database.create schema [ strain_table; patient_table; contact_table ]
