open Selest_util
open Selest_db
open Selest_bn

exception Error of string

let error fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* Decoding leans on the Sexp accessors, which raise [Failure] on shape
   errors; [guard] converts anything raised while decoding untrusted input
   into the one documented exception. *)
let guard f =
  try f () with
  | Error _ as e -> raise e
  | Failure m -> raise (Error m)
  | Sys_error m -> raise (Error m)
  | Unix.Unix_error (e, _, _) -> raise (Error ("Serialize: " ^ Unix.error_message e))
  | End_of_file -> raise (Error "Serialize: model file truncated while read")
  | Not_found -> raise (Error "Serialize: malformed model file")
  | Invalid_argument m -> raise (Error ("Serialize: " ^ m))

(* ---- schema fingerprint -------------------------------------------------- *)

let schema_sexp schema =
  Sexp.list
    (Sexp.atom "schema"
    :: Array.to_list
         (Array.map
            (fun ts ->
              Sexp.list
                [
                  Sexp.atom "table";
                  Sexp.atom ts.Schema.tname;
                  Sexp.list
                    (Sexp.atom "attrs"
                    :: Array.to_list
                         (Array.map
                            (fun a ->
                              Sexp.list
                                [
                                  Sexp.atom a.Schema.aname;
                                  Sexp.int (Value.card a.Schema.domain);
                                  Sexp.int (if Value.is_ordinal a.Schema.domain then 1 else 0);
                                ])
                            ts.Schema.attrs));
                  Sexp.list
                    (Sexp.atom "fks"
                    :: Array.to_list
                         (Array.map
                            (fun f ->
                              Sexp.list [ Sexp.atom f.Schema.fkname; Sexp.atom f.Schema.target ])
                            ts.Schema.fks));
                ])
            (Schema.tables schema)))

let schema_fingerprint schema = Digest.to_hex (Digest.string (Sexp.to_string (schema_sexp schema)))

let check_schema schema saved =
  let expected = Sexp.to_string (schema_sexp schema) in
  let got = Sexp.to_string saved in
  if expected <> got then
    error
      "Serialize: saved model's schema fingerprint (%s) does not match this database (%s)"
      (Digest.to_hex (Digest.string got))
      (Digest.to_hex (Digest.string expected))

(* ---- parents -------------------------------------------------------------- *)

let parent_sexp = function
  | Model.Own a -> Sexp.list [ Sexp.atom "own"; Sexp.int a ]
  | Model.Foreign (f, b) -> Sexp.list [ Sexp.atom "foreign"; Sexp.int f; Sexp.int b ]

let parent_of_sexp s =
  match Sexp.as_list s with
  | [ Sexp.Atom "own"; a ] -> Model.Own (Sexp.as_int a)
  | [ Sexp.Atom "foreign"; f; b ] -> Model.Foreign (Sexp.as_int f, Sexp.as_int b)
  | _ -> error "Serialize: malformed parent"

(* ---- CPDs ------------------------------------------------------------------ *)

let int_array_sexp tag a =
  Sexp.list (Sexp.atom tag :: Array.to_list (Array.map Sexp.int a))

let int_array_of t tag =
  Array.of_list (List.map Sexp.as_int (Sexp.field_values t tag))

let float_array_of t tag =
  Array.of_list (List.map Sexp.as_float (Sexp.field_values t tag))

let rec node_sexp = function
  | Tree_cpd.Leaf { dist; weight } ->
    Sexp.list
      (Sexp.atom "leaf" :: Sexp.float weight :: Array.to_list (Array.map Sexp.float dist))
  | Tree_cpd.Split { pindex; arms = Tree_cpd.Multi kids } ->
    Sexp.list (Sexp.atom "multi" :: Sexp.int pindex :: Array.to_list (Array.map node_sexp kids))
  | Tree_cpd.Split { pindex; arms = Tree_cpd.Thresh (cut, lo, hi) } ->
    Sexp.list [ Sexp.atom "thresh"; Sexp.int pindex; Sexp.int cut; node_sexp lo; node_sexp hi ]

let rec node_of_sexp s =
  match Sexp.as_list s with
  | Sexp.Atom "leaf" :: weight :: dist ->
    Tree_cpd.Leaf
      {
        dist = Array.of_list (List.map Sexp.as_float dist);
        weight = Sexp.as_float weight;
      }
  | Sexp.Atom "multi" :: pindex :: kids ->
    Tree_cpd.Split
      {
        pindex = Sexp.as_int pindex;
        arms = Tree_cpd.Multi (Array.of_list (List.map node_of_sexp kids));
      }
  | [ Sexp.Atom "thresh"; pindex; cut; lo; hi ] ->
    Tree_cpd.Split
      {
        pindex = Sexp.as_int pindex;
        arms = Tree_cpd.Thresh (Sexp.as_int cut, node_of_sexp lo, node_of_sexp hi);
      }
  | _ -> error "Serialize: malformed tree node"

let cpd_sexp = function
  | Cpd.Table c ->
    Sexp.list
      [
        Sexp.atom "table-cpd";
        Sexp.list [ Sexp.atom "child-card"; Sexp.int c.Table_cpd.child_card ];
        int_array_sexp "parents" c.Table_cpd.parents;
        int_array_sexp "parent-cards" c.Table_cpd.parent_cards;
        Sexp.list
          (Sexp.atom "entries" :: Array.to_list (Array.map Sexp.float c.Table_cpd.table));
      ]
  | Cpd.Tree c ->
    Sexp.list
      [
        Sexp.atom "tree-cpd";
        Sexp.list [ Sexp.atom "child-card"; Sexp.int c.Tree_cpd.child_card ];
        int_array_sexp "parents" c.Tree_cpd.parents;
        int_array_sexp "parent-cards" c.Tree_cpd.parent_cards;
        int_array_sexp "ordinal"
          (Array.map (fun b -> if b then 1 else 0) c.Tree_cpd.parent_ordinal);
        Sexp.list [ Sexp.atom "root"; node_sexp c.Tree_cpd.root ];
      ]

let cpd_of_sexp s =
  match Sexp.as_list s with
  | Sexp.Atom "table-cpd" :: _ ->
    let child_card = Sexp.as_int (List.hd (Sexp.field_values s "child-card")) in
    let parents = int_array_of s "parents" in
    let parent_cards = int_array_of s "parent-cards" in
    let entries = float_array_of s "entries" in
    Cpd.Table (Table_cpd.of_table ~child_card ~parents ~parent_cards entries)
  | Sexp.Atom "tree-cpd" :: _ ->
    let child_card = Sexp.as_int (List.hd (Sexp.field_values s "child-card")) in
    let parents = int_array_of s "parents" in
    let parent_cards = int_array_of s "parent-cards" in
    let parent_ordinal = Array.map (fun i -> i = 1) (int_array_of s "ordinal") in
    let root = node_of_sexp (List.hd (Sexp.field_values s "root")) in
    Cpd.Tree (Tree_cpd.of_tree ~child_card ~parents ~parent_cards ~parent_ordinal root)
  | _ -> error "Serialize: malformed cpd"

(* ---- model ------------------------------------------------------------------ *)

let family_sexp fam =
  Sexp.list
    [
      Sexp.atom "family";
      Sexp.list (Sexp.atom "parents" :: Array.to_list (Array.map parent_sexp fam.Model.parents));
      Sexp.list [ Sexp.atom "cpd"; cpd_sexp fam.Model.cpd ];
    ]

let family_of_sexp s =
  let parents =
    Array.of_list (List.map parent_of_sexp (Sexp.field_values s "parents"))
  in
  let cpd = cpd_of_sexp (List.hd (Sexp.field_values s "cpd")) in
  { Model.parents; cpd }

let to_sexp (model : Model.t) =
  Sexp.list
    [
      Sexp.atom "selest-prm";
      Sexp.list [ Sexp.atom "version"; Sexp.int 1 ];
      schema_sexp model.Model.schema;
      Sexp.list
        (Sexp.atom "tables"
        :: Array.to_list
             (Array.map
                (fun tm ->
                  Sexp.list
                    [
                      Sexp.atom "table-model";
                      Sexp.list
                        (Sexp.atom "attrs"
                        :: Array.to_list (Array.map family_sexp tm.Model.attr_families));
                      Sexp.list
                        (Sexp.atom "joins"
                        :: Array.to_list (Array.map family_sexp tm.Model.join_families));
                    ])
                model.Model.tables));
    ]

let of_sexp ~schema s =
  guard @@ fun () ->
  (match Sexp.as_list s with
  | Sexp.Atom "selest-prm" :: _ -> ()
  | _ -> error "Serialize: not a selest-prm file");
  let version = Sexp.as_int (List.hd (Sexp.field_values s "version")) in
  if version <> 1 then error "Serialize: unsupported version %d" version;
  check_schema schema (Sexp.field s "schema");
  let tables =
    Array.of_list
      (List.map
         (fun tm ->
           let attr_families =
             Array.of_list (List.map family_of_sexp (Sexp.field_values tm "attrs"))
           in
           let join_families =
             Array.of_list (List.map family_of_sexp (Sexp.field_values tm "joins"))
           in
           { Model.attr_families; join_families })
         (Sexp.field_values s "tables"))
  in
  Model.create schema tables

let save path model = Sexp.save path (to_sexp model)

let max_file_bytes = 64 * 1024 * 1024

(* The text of the regular file at [path], at most [max_file_bytes]
   long.  The path is stat'ed before it is opened, so a directory,
   FIFO or device is refused without being opened (opening a FIFO
   blocks until a writer comes); the descriptor, opened non-blocking,
   must still be that same file. *)
let read_model_file path =
  let fail e = error "Serialize: %s: %s" path (Unix.error_message e) in
  let check (st : Unix.stats) =
    if st.st_kind <> Unix.S_REG then error "Serialize: %s is not a regular file" path;
    if st.st_size > max_file_bytes then
      error "Serialize: %s is larger than %d bytes" path max_file_bytes
  in
  let st = try Unix.stat path with Unix.Unix_error (e, _, _) -> fail e in
  check st;
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (e, _, _) -> fail e
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let now = Unix.fstat fd in
      if now.st_dev <> st.st_dev || now.st_ino <> st.st_ino then
        error "Serialize: %s changed while it was opened" path;
      check now;
      really_input_string (Unix.in_channel_of_descr fd) now.st_size)

let load path ~schema =
  guard (fun () -> of_sexp ~schema (Sexp.of_string (read_model_file path)))
