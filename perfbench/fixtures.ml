(* Workload inputs, each a pure function of the seed.  The program sees
   only these generated files and models, never the seed. *)

module Corpus = Namer_corpus.Corpus
module Namer = Namer_core.Namer

(* jobs = nproc, the CLI default *)
let nproc = Domain.recommended_domain_count ()
let config = { Namer.default_config with jobs = nproc }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec list_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then list_files p else [ p ])

(* scan20k: a paper-scale Python corpus and a model trained on a separate
   20-repo generated corpus *)
let scan_files = 20_000
let files_per_repo = 50

let generated lang ~repos ~seed =
  Corpus.generate { (Corpus.default_config lang) with n_repos = repos; seed }

let train_model corpus ~path = ignore (Namer.save_model (Namer.build config corpus) ~path)

(* train1k: ~1.4k files, commit history and the injection log *)
let train_corpus ~seed = generated Corpus.Python ~repos:100 ~seed

(* serve-java: the served model's training corpus, and the stream of
   request files (a hot prefix, then files no request repeats) *)
let java_training ~seed = generated Corpus.Java ~repos:20 ~seed

let java_files ~seed ~n =
  let acc = ref [] in
  Corpus.write_scale ~lang:Corpus.Java ~seed:(seed + 104_729) ~files_per_repo ~n_files:n
    (fun ~repo:_ ~path ~source -> acc := (path, source) :: !acc);
  Array.of_list (List.rev !acc)
