(* Reference FP-tree: the implementation [Fptree] had before it moved to
   flat arrays, one [(item, child) Hashtbl.t] per node, kept so a property
   test can check the flat tree against it: the same size and the same
   [fold_last_nodes] sequence, whose order assigns candidate and pattern
   ids.  One edit since: the tables are created [~random:false], so the
   reference keeps the default hash seed under [OCAMLRUNPARAM=R]. *)

type node = {
  item : int;  (** interned path id; -1 at the root *)
  mutable count : int;
  mutable is_last : bool;
  children : (int, node) Hashtbl.t;
}

type t = { root : node }

let create () =
  let children = Hashtbl.create ~random:false 64 in
  { root = { item = -1; count = 0; is_last = false; children } }

let insert t (items : int list) =
  match items with
  | [] -> ()
  | _ ->
      let node = ref t.root in
      List.iter
        (fun id ->
          let child =
            match Hashtbl.find_opt !node.children id with
            | Some c -> c
            | None ->
                let children = Hashtbl.create ~random:false 4 in
                let c = { item = id; count = 0; is_last = false; children } in
                Hashtbl.replace !node.children id c;
                c
          in
          child.count <- child.count + 1;
          node := child)
        items;
      !node.is_last <- true

let rec node_count n =
  Hashtbl.fold (fun _ c acc -> acc + node_count c) n.children 1

let size t = node_count t.root - 1

let fold_last_nodes t ~f acc =
  let rec go rev_path n acc =
    let rev_path = if n.item >= 0 then n.item :: rev_path else rev_path in
    let acc =
      if n.is_last then f acc ~path_items:(List.rev rev_path) ~support:n.count
      else acc
    in
    Hashtbl.fold (fun _ child acc -> go rev_path child acc) n.children acc
  in
  go [] t.root acc
