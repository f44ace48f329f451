let is_neg f = Core_dd.uid f land 1 = 1

let to_dot ?(name = "bdd") ?(var_name = fun v -> Printf.sprintf "x%d" v)
    roots =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph %s {\n" name;
  pr "  rankdir=TB;\n";
  pr "  node [shape=circle];\n";
  pr "  t1 [shape=box, label=\"1\"];\n";
  let seen = Hashtbl.create 64 in
  let node_name id = if id = 0 then "t1" else Printf.sprintf "n%d" id in
  let edges = ref [] in
  (* Walk the regular (uncomplemented) view of every node so each physical
     node is drawn once; complement bits are drawn on edges. *)
  let rec visit f =
    let id = Core_dd.node_id f in
    if id <> 0 && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      pr "  n%d [label=\"%s\"];\n" id (var_name (Core_dd.topvar f));
      let reg = if is_neg f then Core_dd.compl f else f in
      let hi = Core_dd.hi reg and lo = Core_dd.lo reg in
      edges :=
        (id, Core_dd.node_id hi, false, is_neg hi)
        :: (id, Core_dd.node_id lo, true, is_neg lo)
        :: !edges;
      visit hi;
      visit lo
    end
  in
  List.iter (fun (_, f) -> visit f) roots;
  List.iter
    (fun (src, dst, is_else, complemented) ->
       pr "  %s -> %s [style=%s%s];\n" (node_name src) (node_name dst)
         (if is_else then "dashed" else "solid")
         (if complemented then ", color=red, arrowhead=odot" else ""))
    !edges;
  List.iteri
    (fun i (label, f) ->
       pr "  r%d [shape=plaintext, label=\"%s\"];\n" i (String.escaped label);
       pr "  r%d -> %s%s;\n" i
         (node_name (Core_dd.node_id f))
         (if is_neg f then " [color=red, arrowhead=odot]" else ""))
    roots;
  pr "}\n";
  Buffer.contents buf

let dump_file ?name ?var_name path roots =
  let oc = open_out path in
  output_string oc (to_dot ?name ?var_name roots);
  close_out oc
