(* Persistent representation: parent lists as sorted arrays.  Graphs here
   are tiny (tens of nodes), so immutability costs nothing and makes the
   hill-climbing search trivially able to evaluate candidate moves. *)

type t = { parents : int array array }

let empty n =
  if n < 0 then invalid_arg "Dag.empty";
  { parents = Array.make n [||] }

let n_nodes t = Array.length t.parents
let parents t v = t.parents.(v)

let has_edge t ~src ~dst = Array.exists (fun p -> p = src) t.parents.(dst)

let children t v =
  let out = ref [] in
  for c = n_nodes t - 1 downto 0 do
    if has_edge t ~src:v ~dst:c then out := c :: !out
  done;
  Array.of_list !out

let n_edges t = Array.fold_left (fun acc ps -> acc + Array.length ps) 0 t.parents

let reaches t ~src ~dst =
  (* DFS along child edges from src. *)
  let n = n_nodes t in
  let visited = Array.make n false in
  let rec go v =
    if v = dst then true
    else if visited.(v) then false
    else begin
      visited.(v) <- true;
      let found = ref false in
      for c = 0 to n - 1 do
        if (not !found) && has_edge t ~src:v ~dst:c then found := go c
      done;
      !found
    end
  in
  go src

let creates_cycle t ~src ~dst = src = dst || reaches t ~src:dst ~dst:src

let add_edge t ~src ~dst =
  if src = dst then invalid_arg "Dag.add_edge: self-loop";
  if has_edge t ~src ~dst then invalid_arg "Dag.add_edge: edge exists";
  if creates_cycle t ~src ~dst then invalid_arg "Dag.add_edge: would create a cycle";
  let ps = t.parents.(dst) in
  let ps' = Array.append ps [| src |] in
  Array.sort compare ps';
  let parents = Array.copy t.parents in
  parents.(dst) <- ps';
  { parents }

let remove_edge t ~src ~dst =
  if not (has_edge t ~src ~dst) then invalid_arg "Dag.remove_edge: no such edge";
  let ps' = Array.of_list (List.filter (fun p -> p <> src) (Array.to_list t.parents.(dst))) in
  let parents = Array.copy t.parents in
  parents.(dst) <- ps';
  { parents }

let topological_order t =
  let n = n_nodes t in
  let in_deg = Array.map Array.length t.parents in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) in_deg;
  let out = Array.make n 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    out.(!k) <- v;
    incr k;
    Array.iter
      (fun c ->
        in_deg.(c) <- in_deg.(c) - 1;
        if in_deg.(c) = 0 then Queue.add c queue)
      (children t v)
  done;
  if !k <> n then invalid_arg "Dag.topological_order: graph has a cycle";
  out

