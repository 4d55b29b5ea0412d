(* Tests for feature extraction (Table 1) and the scan aggregates. *)

module Features = Namer_classifier.Features
module Pattern = Namer_pattern.Pattern
module Namepath = Namer_namepath.Namepath
module Confusing_pairs = Namer_mining.Confusing_pairs

let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let np = Namepath.of_string

let stmt_a : Features.stmt_ctx =
  { file = "r1/a.py"; repo = "r1"; file_id = 0; repo_id = 0; tree_hash = 111; n_paths = 5 }

let stmt_b : Features.stmt_ctx =
  { file = "r1/b.py"; repo = "r1"; file_id = 1; repo_id = 0; tree_hash = 111; n_paths = 7 }

let stmt_c : Features.stmt_ctx =
  { file = "r2/c.py"; repo = "r2"; file_id = 2; repo_id = 1; tree_hash = 222; n_paths = 4 }

let pattern =
  let p =
    Pattern.make
      ~kind:(Pattern.Confusing_word { correct = "Equal" })
      ~condition:[ np "A 0 B 0 self"; np "A 1 C 0 NUM" ]
      ~deduction:[ Namepath.to_symbolic (np "A 2 D 0 Equal") ]
  in
  let store = Pattern.Store.create () in
  let id = Pattern.Store.add store p in
  Pattern.Store.get store id

let build_agg () =
  let agg = Features.Agg.create () in
  (* identical-statement counts: two statements with hash 111 in repo r1 *)
  Features.Agg.add_stmt agg stmt_a;
  Features.Agg.add_stmt agg stmt_b;
  Features.Agg.add_stmt agg stmt_c;
  (* pattern outcomes: in file a — 3 satisfied, 1 violated; in file c — 1
     satisfied *)
  let v = Pattern.Violated { offending_prefix = "A 2 D"; found = "True"; suggested = "Equal" } in
  Features.Agg.add_outcome agg stmt_a ~pattern_id:pattern.Pattern.id Pattern.Satisfied;
  Features.Agg.add_outcome agg stmt_a ~pattern_id:pattern.Pattern.id Pattern.Satisfied;
  Features.Agg.add_outcome agg stmt_a ~pattern_id:pattern.Pattern.id Pattern.Satisfied;
  Features.Agg.add_outcome agg stmt_a ~pattern_id:pattern.Pattern.id v;
  Features.Agg.add_outcome agg stmt_c ~pattern_id:pattern.Pattern.id Pattern.Satisfied;
  agg

let info = { Pattern.offending_prefix = "A 2 D"; found = "True"; suggested = "Equal" }

let test_feature_vector () =
  let agg = build_agg () in
  let pairs = Confusing_pairs.create () in
  Confusing_pairs.add_pair pairs ("True", "Equal");
  let f = Features.extract agg pairs stmt_a pattern info in
  check_int "17 features" 17 (Array.length f);
  checkf "f1: n paths" 5.0 f.(0);
  checkf "f2: identical in file" 1.0 f.(1);
  checkf "f3: identical in repo (a and b share hash)" 2.0 f.(2);
  checkf "f4: satisfaction rate file (3/4)" 0.75 f.(3);
  checkf "f5: satisfaction rate repo" 0.75 f.(4);
  checkf "f6: satisfaction rate dataset (4/5)" 0.8 f.(5);
  checkf "f7: violations file" 1.0 f.(6);
  checkf "f8: violations repo" 1.0 f.(7);
  checkf "f9: violations dataset" 1.0 f.(8);
  checkf "f10: satisfactions file" 3.0 f.(9);
  checkf "f11: satisfactions repo" 3.0 f.(10);
  checkf "f12: satisfactions dataset" 4.0 f.(11);
  checkf "f13: not a function name (no Call in prefix)" 0.0 f.(12);
  checkf "f14: condition size" 2.0 f.(13);
  checkf "f15: match ratio 2/(5-1)" 0.5 f.(14);
  checkf "f16: edit distance True/Equal" 4.0 f.(15);
  checkf "f17: confusing pair" 1.0 f.(16)

let test_feature_no_pair () =
  let agg = build_agg () in
  let pairs = Confusing_pairs.create () in
  let f = Features.extract agg pairs stmt_a pattern info in
  checkf "f17 without the mined pair" 0.0 f.(16)

let test_unseen_pattern_zero_counts () =
  let agg = Features.Agg.create () in
  let pairs = Confusing_pairs.create () in
  let f = Features.extract agg pairs stmt_c pattern info in
  checkf "f4 defaults" 0.0 f.(3);
  checkf "f9 defaults" 0.0 f.(8);
  checkf "f2 defaults to 1 (itself)" 1.0 f.(1)

let test_names_cover_features () =
  check_int "17 names" Features.n_features (Array.length Features.names)

(* Lazy: compiling interns into the global table, which the model hash
   pin's child process (this executable) must find as it always has. *)
let agg_patterns =
  lazy
    (let store = Pattern.Store.create () in
     List.init 3 (fun i ->
         let p =
           Pattern.make
             ~kind:(Pattern.Confusing_word { correct = "Equal" })
             ~condition:[ np (Printf.sprintf "A 0 B 0 c%d" i) ]
             ~deduction:[ np "A 2 D 0 Equal" ]
         in
         Pattern.Store.get store (Pattern.Store.add store p)))

(* Events as a sharded scan records them: a shard, and a statement (file,
   hash) or a pattern outcome on one.  Repo [file / 2] holds files
   [2r] and [2r + 1]. *)
let agg_ctx (file, hash) : Features.stmt_ctx =
  { file = ""; repo = ""; file_id = file; repo_id = file / 2; tree_hash = hash; n_paths = 3 }

let agg_events =
  let event =
    QCheck.Gen.(
      pair (int_range 0 3)
        (oneof
           [
             map (fun s -> `Stmt s) (pair (int_range 0 3) (int_range 0 2));
             map
               (fun (s, (p, sat)) -> `Outcome (s, p, sat))
               (pair (pair (int_range 0 3) (int_range 0 2)) (pair (int_range 0 2) bool));
           ]))
  in
  QCheck.(make Gen.(list_size (int_range 0 60) event))

let agg_record agg = function
  | `Stmt s -> Features.Agg.add_stmt agg (agg_ctx s)
  | `Outcome (s, p, sat) ->
      let rel = if sat then Pattern.Satisfied else Pattern.Violated info in
      Features.Agg.add_outcome agg (agg_ctx s)
        ~pattern_id:(List.nth (Lazy.force agg_patterns) p).Pattern.id rel

(* Every event into one full aggregate, and through [record] into its
   shard's aggregate. *)
let agg_shards ?(shard_agg = Features.Agg.create) ?(record = agg_record) events =
  let one = Features.Agg.create () and shards = Array.init 4 (fun _ -> shard_agg ()) in
  List.iter
    (fun (shard, e) ->
      agg_record one e;
      record shards.(shard) e)
    events;
  (one, Array.to_list shards)

(* Aggregates kept per shard and summed when read give every feature
   vector one aggregate fed every event gives, including statements and
   patterns no event mentions (features 2/3 then count the statement
   itself once). *)
let prop_agg_sum_at_read =
  QCheck.Test.make ~name:"aggregates summed at read = one merged aggregate" ~count:300
    agg_events
    (fun events ->
      let one, shards = agg_shards events in
      let summed = Features.Agg.sum shards in
      let pairs = Confusing_pairs.create () in
      (* one more file and hash than any event uses *)
      List.for_all
        (fun file ->
          List.for_all
            (fun hash ->
              List.for_all
                (fun p ->
                  Features.extract one pairs (agg_ctx (file, hash)) p info
                  = Features.extract summed pairs (agg_ctx (file, hash)) p info)
                (Lazy.force agg_patterns))
            [ 0; 1; 2; 3 ])
        [ 0; 1; 2; 3; 4 ])

(* A build's aggregate: every event into per-shard dataset parts, then
   the events of each repo that holds a violation replayed into per-shard
   keyed parts made from the violations' keys.  Every violation reads the
   same features from their sum as from one full aggregate. *)
let prop_agg_keyed =
  QCheck.Test.make ~name:"keyed + dataset aggregates = a full one at every violation"
    ~count:300 agg_events
    (fun events ->
      let one, dataset = agg_shards ~shard_agg:Features.Agg.dataset events in
      let violations =
        List.sort_uniq compare
          (List.filter_map (function _, `Outcome (s, p, false) -> Some (s, p) | _ -> None) events)
        |> List.map (fun (s, p) -> (s, List.nth (Lazy.force agg_patterns) p))
      in
      let keys =
        Features.Agg.keys
          (List.map (fun (s, (p : Pattern.t)) -> (agg_ctx s, p.Pattern.id)) violations)
      in
      let violating_repo (file, _) =
        List.exists (fun ((f, _), _) -> f / 2 = file / 2) violations
      in
      let _, keyed =
        agg_shards
          ~shard_agg:(fun () -> Features.Agg.keyed keys)
          ~record:(fun agg e ->
            match e with
            | (`Stmt s | `Outcome (s, _, _)) when violating_repo s -> agg_record agg e
            | _ -> ())
          events
      in
      let restricted = Features.Agg.sum (dataset @ keyed) in
      let pairs = Confusing_pairs.create () in
      List.for_all
        (fun (s, p) ->
          Features.extract one pairs (agg_ctx s) p info
          = Features.extract restricted pairs (agg_ctx s) p info)
        violations)

let suite =
  [
    Alcotest.test_case "table 1 feature vector" `Quick test_feature_vector;
    Alcotest.test_case "feature 17 requires a mined pair" `Quick test_feature_no_pair;
    Alcotest.test_case "defaults for unseen patterns" `Quick test_unseen_pattern_zero_counts;
    Alcotest.test_case "feature names" `Quick test_names_cover_features;
    QCheck_alcotest.to_alcotest prop_agg_sum_at_read;
    QCheck_alcotest.to_alcotest prop_agg_keyed;
  ]
