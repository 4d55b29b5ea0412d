(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus Bechamel micro-benchmarks and a k-sweep ablation.

   Usage:
     dune exec bench/main.exe                 # all tables and figures
     dune exec bench/main.exe -- --quick      # smaller corpora (CI-sized)
     dune exec bench/main.exe -- --perf       # micro-benchmarks only
     dune exec bench/main.exe -- --no-nn      # skip the GGNN/Great baselines
     dune exec bench/main.exe -- --sweeps     # add feature/threshold ablations

   Expected-vs-measured numbers are catalogued in EXPERIMENTS.md. *)

module Corpus = Namer_corpus.Corpus

let usage =
  String.concat "\n"
    [
      "usage: main.exe [--quick] [--no-nn] [--sweeps]";
      "       main.exe --perf";
      "";
      "  --quick          smaller corpora for the evaluation tables";
      "  --no-nn          skip the GGNN / Great comparison (Tables 10 and 11)";
      "  --sweeps         also run the feature ablation and mining sweeps";
      "  --perf           the speed micro-benchmarks instead of the tables";
      "";
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec check = function
    | [] -> ()
    | ("--quick" | "--no-nn" | "--sweeps" | "--perf") :: rest -> check rest
    | ("-h" | "-help" | "--help") :: _ ->
        print_string usage;
        exit 0
    | a :: _ ->
        Printf.eprintf "main.exe: bad argument %S\n%s%!" a usage;
        exit 2
  in
  check args;
  let flag f = List.mem f args in
  let quick = flag "--quick" in
  let scale = if quick then Exp.Quick else Exp.Full in
  if flag "--perf" then begin
    Perf.run ();
    Perf.k_sweep ();
    exit 0
  end;
  let t_start = Unix.gettimeofday () in
  print_endline "==============================================================";
  print_endline " Namer reproduction — PLDI 2021 evaluation tables and figures";
  print_endline "==============================================================\n";

  (* ---------------- Python (§5.2) ---------------- *)
  print_endline "### Python evaluation (§5.2) ###\n";
  let py = Exp.build_lang ~scale Corpus.Python in
  print_newline ();
  let py_rows = Exp.precision_table py in
  Exp.print_precision_table
    ~caption:
      (Printf.sprintf
         "Table 2: precision on %d randomly selected violations (Python; paper: 70/46/59/40%%)"
         Exp.sample_n)
    py_rows;
  Exp.print_examples_table ~caption:"Table 3: example reports (Python)" py.Exp.namer;
  Exp.print_per_kind_table
    ~caption:"Table 4: 100 reports per pattern type with quality breakdown (Python)"
    py.Exp.namer;
  Exp.print_kind_distribution py.Exp.namer;
  Exp.print_stats py;

  (* ---------------- Java (§5.3) ---------------- *)
  print_endline "### Java evaluation (§5.3) ###\n";
  let java = Exp.build_lang ~scale Corpus.Java in
  print_newline ();
  let java_rows = Exp.precision_table java in
  Exp.print_precision_table
    ~caption:
      (Printf.sprintf
         "Table 5: precision on %d randomly selected violations (Java; paper: 68/31/48/29%%)"
         Exp.sample_n)
    java_rows;
  Exp.print_examples_table ~caption:"Table 6: example reports (Java)" java.Exp.namer;
  Exp.print_per_kind_table
    ~caption:"Table 4-analog for Java: 100 reports per pattern type"
    java.Exp.namer;
  Exp.print_kind_distribution java.Exp.namer;
  Exp.print_stats java;

  (* ---------------- user study (§5.4) ---------------- *)
  print_endline "### User study (§5.4, simulated) ###\n";
  Exp.print_userstudy py;

  (* ---------------- classifier insight (§5.5) ---------------- *)
  print_endline "### Understanding classifier decisions (§5.5) ###\n";
  Exp.print_table9 py java;

  (* ---------------- deep-learning comparison (§5.6) ---------------- *)
  if not (flag "--no-nn") then begin
    print_endline "### Comparison with deep-learning approaches (§5.6) ###\n";
    let namer_py = List.assoc "Namer" py_rows in
    let rows10 = Exp.baselines_table py ~namer_outcome:namer_py in
    print_newline ();
    Exp.print_baselines_table
      ~caption:"Table 10: GGNN / Great / Namer precision (Python; paper: 16% / 8% / 70%)"
      rows10 ~namer_outcome:namer_py;
    let namer_java = List.assoc "Namer" java_rows in
    let rows11 = Exp.baselines_table java ~namer_outcome:namer_java in
    print_newline ();
    Exp.print_baselines_table
      ~caption:"Table 11: GGNN / Great / Namer precision (Java; paper: 9% / 5% / 68%)"
      rows11 ~namer_outcome:namer_java
  end;
  print_newline ();

  (* ---------------- extra ablations (DESIGN.md §4) ---------------- *)
  if flag "--sweeps" then begin
    print_endline "### Extra ablations ###\n";
    Exp.print_feature_ablation py;
    Exp.print_mining_sweep ()
  end;

  (* ---------------- figures ---------------- *)
  print_endline "### Figures ###\n";
  Exp.print_figure2 py;
  Exp.print_figure3 ();

  Printf.printf "total wall-clock: %.0fs\n" (Unix.gettimeofday () -. t_start);
  print_endline "(run with --perf for the §5.1 speed micro-benchmarks)"
