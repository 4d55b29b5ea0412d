(** Campaign driver.  See the interface for the contract. *)

module Namer = Namer_core.Namer
module Corpus = Namer_corpus.Corpus
module Confusing_pairs = Namer_mining.Confusing_pairs
module Prng = Namer_util.Prng

type config = {
  f_lang : Corpus.lang;
  f_seed : int;
  f_iters : int;
  f_out : string option;
  f_jobs : int;
  f_bomb_depth : int;
  f_repos : int;
}

let default_config lang =
  {
    f_lang = lang;
    f_seed = 42;
    f_iters = 200;
    f_out = None;
    f_jobs = 1;
    f_bomb_depth = Mutate.default_bomb_depth;
    f_repos = 6;
  }

type summary = {
  s_iters : int;
  s_mutants : int;
  s_skipped : int;
  s_crashes : Triage.crash list;
  s_buckets : (string * int) list;
  s_oracles : Oracles.result list;
}

let ok s = s.s_crashes = [] && List.for_all (fun (o : Oracles.result) -> o.Oracles.o_pass) s.s_oracles

let pp_summary ppf s =
  Format.fprintf ppf "fuzz: %d iterations, %d mutants scanned, %d degraded to skipped files@."
    s.s_iters s.s_mutants s.s_skipped;
  (match s.s_buckets with
  | [] -> Format.fprintf ppf "crashes: none@."
  | buckets ->
      Format.fprintf ppf "crashes: %d in %d buckets@." (List.length s.s_crashes)
        (List.length buckets);
      List.iter (fun (b, n) -> Format.fprintf ppf "  bucket %s: %d@." b n) buckets);
  List.iter
    (fun (o : Oracles.result) ->
      Format.fprintf ppf "oracle %-16s %s  (%s)@." o.Oracles.o_name
        (if o.Oracles.o_pass then "PASS" else "FAIL")
        o.Oracles.o_detail)
    s.s_oracles

(* The campaign record for the run ledger: same facts as [pp_summary], as
   data — iteration counts, crash buckets, per-oracle verdicts. *)
let summary_json s =
  let module J = Namer_util.Json in
  J.Obj
    [
      ("iters", J.Int s.s_iters);
      ("mutants", J.Int s.s_mutants);
      ("skipped", J.Int s.s_skipped);
      ("crashes", J.Int (List.length s.s_crashes));
      ( "buckets",
        J.Obj (List.map (fun (b, n) -> (b, J.Int n)) s.s_buckets) );
      ( "oracles",
        J.Obj
          (List.map
             (fun (o : Oracles.result) ->
               (o.Oracles.o_name, J.Bool o.Oracles.o_pass))
             s.s_oracles) );
      ("ok", J.Bool (ok s));
    ]

(* Self-mine a model from a small generated corpus — the CLI's scaled
   thresholds, so a 6-repo corpus still yields a usable pattern store. *)
let build_model ~progress cfg =
  let ccfg =
    { (Corpus.default_config cfg.f_lang) with
      Corpus.n_repos = cfg.f_repos; seed = cfg.f_seed }
  in
  let corpus = Corpus.generate ccfg in
  let n_files = List.length corpus.Corpus.files in
  let bcfg =
    { (Namer.self_mining_config ~n_files) with Namer.seed = cfg.f_seed; jobs = cfg.f_jobs }
  in
  let t = Namer.build bcfg corpus in
  let m = Namer.model_of t in
  progress
    (Printf.sprintf "model: %d files, %d patterns, %d pairs, hash %s" n_files
       (Namer_pattern.Pattern.Store.size m.Namer.m_store)
       (Confusing_pairs.total_pairs m.Namer.m_pairs)
       m.Namer.m_hash);
  (corpus, t, m)

let run ?(progress = fun _ -> ()) cfg =
  let rng = Prng.create cfg.f_seed in
  let corpus, t, m = build_model ~progress cfg in
  let files_arr = Array.of_list corpus.Corpus.files in
  let pairs =
    match Confusing_pairs.bindings m.Namer.m_pairs with
    | [] -> Namer.builtin_pairs cfg.f_lang
    | bs -> List.map fst bs
  in
  let scan_source (f : Corpus.file) src =
    Namer.scan_with_model ~jobs:1 m [ { f with Corpus.source = src } ]
  in
  let crashes = ref [] in
  let buckets = Hashtbl.create 8 in
  let skipped = ref 0 and mutants = ref 0 in
  for i = 1 to cfg.f_iters do
    let f = Prng.choose_arr rng files_arr in
    let mut =
      Mutate.mutate ~rng ~pairs ~bomb_depth:cfg.f_bomb_depth ~lang:cfg.f_lang
        f.Corpus.source
    in
    incr mutants;
    (match scan_source f mut.Mutate.m_source with
    | sr -> if sr.Namer.sr_skipped <> [] then incr skipped
    | exception Out_of_memory ->
        (* not survivable, not triageable: let the operator see it *)
        raise Out_of_memory
    | exception e ->
        let exn_text = Printexc.to_string e in
        let bucket = Triage.bucket ~lang:cfg.f_lang ~exn_text in
        progress
          (Printf.sprintf "iter %d: CRASH %s after %s -> bucket %s" i exn_text
             mut.Mutate.m_desc bucket);
        let still_crashes candidate =
          match scan_source f candidate with
          | _ -> false
          | exception Out_of_memory -> false
          | exception e' ->
              String.equal bucket
                (Triage.bucket ~lang:cfg.f_lang
                   ~exn_text:(Printexc.to_string e'))
        in
        let minimized = Triage.minimize ~still_crashes mut.Mutate.m_source in
        let crash =
          {
            Triage.c_lang = cfg.f_lang;
            c_exn = exn_text;
            c_bucket = bucket;
            c_input = minimized;
            c_desc = Printf.sprintf "iter %d: %s" i mut.Mutate.m_desc;
            c_iter = i;
          }
        in
        Hashtbl.replace buckets bucket
          (1 + Option.value ~default:0 (Hashtbl.find_opt buckets bucket));
        (match cfg.f_out with
        | Some out -> (
            match Triage.write ~out crash with
            | Some path -> progress (Printf.sprintf "  minimized reproducer: %s" path)
            | None -> ())
        | None -> ());
        crashes := crash :: !crashes);
    if i mod 50 = 0 then
      progress
        (Printf.sprintf "iter %d/%d: %d crashes, %d skipped-file scans" i
           cfg.f_iters (List.length !crashes) !skipped)
  done;
  progress "running metamorphic oracles";
  let oracles =
    Oracles.run_all ~rng ~t ~model:m ~files:corpus.Corpus.files
      ~commits:corpus.Corpus.commits
  in
  {
    s_iters = cfg.f_iters;
    s_mutants = !mutants;
    s_skipped = !skipped;
    s_crashes = List.rev !crashes;
    s_buckets =
      Hashtbl.fold (fun b n acc -> (b, n) :: acc) buckets [] |> List.sort compare;
    s_oracles = oracles;
  }
