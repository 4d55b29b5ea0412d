(* Bechamel micro-benchmarks (§5.1 "Speed of Namer"): per-file analysis
   time (the paper reports 39 ms/file Python, 20 ms/file Java on a 2.60 GHz
   Xeon), pattern matching, FP-tree insertion and classifier inference. *)

open Bechamel
module Corpus = Namer_corpus.Corpus
module Pattern = Namer_pattern.Pattern
module Namer = Namer_core.Namer

let representative_python =
  let c =
    Corpus.generate
      { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 1; files_per_repo = (5, 5) }
  in
  (List.hd c.Corpus.files).Corpus.source

let representative_java =
  let c =
    Corpus.generate
      { (Corpus.default_config Corpus.Java) with Corpus.n_repos = 1; files_per_repo = (5, 5) }
  in
  (List.hd c.Corpus.files).Corpus.source

(* A small built system for matching/inference benchmarks. *)
let small_system =
  lazy
    (let corpus =
       Corpus.generate
         { (Corpus.default_config Corpus.Python) with Corpus.n_repos = 15; files_per_repo = (6, 10) }
     in
     let t =
       Namer.build
         {
           Namer.default_config with
           miner =
             { Namer_mining.Miner.default_config with min_support = 10; min_path_freq = 5 };
         }
         corpus
     in
     let digest =
       let parsed =
         Namer_core.Frontend.parse_file Corpus.Python ~use_analysis:true
           representative_python
       in
       let s = List.nth parsed.Namer_core.Frontend.stmts 5 in
       let origins =
         parsed.Namer_core.Frontend.origins ~cls:s.Namer_core.Frontend.cls
           ~fn:s.Namer_core.Frontend.fn
       in
       Pattern.Stmt_paths.of_tree
         (Namer_namepath.Astplus.transform ~origins s.Namer_core.Frontend.tree)
     in
     (t, digest))

let tests () =
  let parse_py =
    Test.make ~name:"python: parse file"
      (Staged.stage (fun () ->
           ignore (Namer_pylang.Py_parser.parse_module representative_python)))
  in
  let analyze_py =
    Test.make ~name:"python: parse+analyze file (k=5)"
      (Staged.stage (fun () ->
           ignore
             (Namer_core.Frontend.parse_file Corpus.Python ~use_analysis:true
                representative_python)))
  in
  let parse_java =
    Test.make ~name:"java: parse file"
      (Staged.stage (fun () ->
           ignore (Namer_javalang.Java_parser.parse_compilation_unit representative_java)))
  in
  let analyze_java =
    Test.make ~name:"java: parse+analyze file"
      (Staged.stage (fun () ->
           ignore
             (Namer_core.Frontend.parse_file Corpus.Java ~use_analysis:true
                representative_java)))
  in
  let t, digest = Lazy.force small_system in
  let match_stmt =
    Test.make ~name:"pattern matching: one statement vs store"
      (Staged.stage (fun () ->
           Pattern.Store.candidates t.Namer.store digest
           |> List.iter (fun p -> ignore (Pattern.check p digest))))
  in
  let fptree_insert =
    let items = Array.init 8 (fun i -> i) in
    let tree = Namer_mining.Fptree.create () in
    Test.make ~name:"fp-tree: one insertion"
      (Staged.stage (fun () -> Namer_mining.Fptree.insert tree items 8))
  in
  let classify =
    match (t.Namer.classifier, t.Namer.violations) with
    | Some c, vs when Array.length vs > 0 ->
        let features = vs.(0).Namer.v_features in
        Test.make ~name:"classifier: one inference"
          (Staged.stage (fun () -> ignore (Namer_ml.Pipeline.predict c features)))
    | _ -> Test.make ~name:"classifier: one inference" (Staged.stage (fun () -> ()))
  in
  Test.make_grouped ~name:"namer"
    [ parse_py; analyze_py; parse_java; analyze_java; match_stmt; fptree_insert; classify ]

(* ---------------- interning micro-benchmarks ---------------- *)

(* The hot-path primitives behind the hash-consed pipeline, plus the
   canonical-text-vs-interned-id comparison they replace. *)
let micro_tests () =
  let module Interner = Namer_util.Interner in
  let module Namepath = Namer_namepath.Namepath in
  let words = Array.init 256 (fun i -> Printf.sprintf "sub_token_%d" i) in
  let populated =
    let i = Interner.create () in
    Array.iter (fun w -> ignore (Interner.intern i w)) words;
    i
  in
  let intern_hit =
    Test.make ~name:"intern: hit"
      (Staged.stage (fun () -> ignore (Interner.intern populated words.(57))))
  in
  let lookup_hit =
    Test.make ~name:"intern: lookup"
      (Staged.stage (fun () -> ignore (Interner.lookup populated words.(191))))
  in
  let remap_merge =
    Test.make ~name:"intern: remap-merge 256 ids"
      (Staged.stage (fun () ->
           let into = Interner.create () in
           ignore (Interner.remap ~into populated)))
  in
  (* what one hot-loop key operation used to cost (render the canonical
     text, hash it) vs what it costs now (hash a machine int) *)
  let path =
    Namepath.of_string
      "NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True"
  in
  let interned = Namepath.Interned.of_path ~table:(Namepath.Interned.create_table ()) path in
  let key_text =
    Test.make ~name:"key: canonical text render+hash"
      (Staged.stage (fun () -> ignore (Hashtbl.hash (Namepath.to_string path))))
  in
  let key_id =
    Test.make ~name:"key: interned id hash"
      (Staged.stage (fun () -> ignore (Hashtbl.hash interned.Namepath.Interned.pid)))
  in
  Test.make_grouped ~name:"intern"
    [ intern_hit; lookup_hit; remap_merge; key_text; key_id ]

let estimates ?(quota = 1.0) tests =
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  List.sort compare !rows

let pretty_ns ns =
  if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let run () =
  print_endline "\n### Micro-benchmarks (§5.1 speed; Bechamel, monotonic clock) ###\n";
  let rows = estimates (tests ()) @ estimates ~quota:0.25 (micro_tests ()) in
  Namer_util.Tablefmt.print ~caption:"time per run (OLS estimate)"
    ~header:[ "benchmark"; "time/run" ]
    (List.map (fun (name, ns) -> [ name; pretty_ns ns ]) rows);
  print_endline
    "  paper's reference: 39 ms/file Python, 20 ms/file Java on a 28-core Xeon\n\
     (absolute values are machine-dependent; see EXPERIMENTS.md)"

(* k-sensitivity sweep: analysis time and precise-origin yield as a function
   of the call-string depth (the DESIGN.md ablation). *)
let k_sweep () =
  print_endline "\n### Analysis ablation: k-call-site depth sweep ###\n";
  (* a file with real call chains, so context strings actually grow *)
  let chain_src =
    let b = Buffer.create 1024 in
    Buffer.add_string b "def make():\n    return Widget()\n";
    for i = 0 to 5 do
      Buffer.add_string b
        (Printf.sprintf "def layer%d(x):\n    w = %s\n    return w\n" i
           (if i = 0 then "make()" else Printf.sprintf "layer%d(x)" (i - 1)))
    done;
    Buffer.add_string b "def top():\n    a = layer5(1)\n    b = layer5(2)\n    return a\n";
    Buffer.contents b
  in
  let m = Namer_pylang.Py_parser.parse_module chain_src in
  let rows =
    List.map
      (fun k ->
        let t0 = Unix.gettimeofday () in
        let reps = 50 in
        for _ = 1 to reps do
          ignore (Namer_analysis.Py_analysis.analyze ~k m)
        done;
        let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
        let a = Namer_analysis.Py_analysis.analyze ~k m in
        [
          string_of_int k;
          string_of_int (Namer_analysis.Py_analysis.n_instances a);
          Printf.sprintf "%.2f ms" (1000.0 *. dt);
        ])
      [ 0; 1; 2; 5; 8 ]
  in
  Namer_util.Tablefmt.print
    ~caption:"per-file Python analysis vs context depth k (paper fixes k = 5)"
    ~header:[ "k"; "fn instances"; "time/file" ]
    rows
