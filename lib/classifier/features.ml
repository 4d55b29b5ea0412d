(** The defect classifier's feature extraction — Table 1 of the paper.

    Given a violation (statement s, violated pattern p), seventeen high-level
    features are computed, most of them at three granularities (the file
    containing s, the repository containing s, and the entire mining
    dataset).  The aggregates needed by features 2–12 are accumulated in one
    pass over the scanned corpus ({!Agg}) before any feature vector is
    extracted. *)

module Pattern = Namer_pattern.Pattern
module Confusing_pairs = Namer_mining.Confusing_pairs

(** What feature extraction needs to know about the violating statement. *)
type stmt_ctx = {
  file : string;
  repo : string;
  mutable file_id : int;  (** dense corpus-wide file id; -1 until assigned *)
  mutable repo_id : int;  (** dense corpus-wide repo id; -1 until assigned *)
  tree_hash : int;  (** structural hash of the parsed statement tree *)
  n_paths : int;  (** number of extracted name paths (feature 1) *)
}

type counts = { mutable matches : int; mutable sats : int; mutable viols : int }

let fresh_counts () = { matches = 0; sats = 0; viols = 0 }

(** Corpus-level aggregates, accumulated during the scan pass. *)
module Agg = struct
  module Int_tbl = Hashtbl.Make (Int)

  (* One shard's aggregates.  Keys are dense ids: a (pattern, file) or
     (pattern, repo) pair packs into one int; (file, statement hash) stays
     a pair, since the hash uses every bit. *)
  type part = {
    identical_file : (int * int, int) Hashtbl.t;  (** (file id, hash) → count *)
    identical_repo : (int * int, int) Hashtbl.t;  (** (repo id, hash) → count *)
    per_file : counts Int_tbl.t;  (** (pattern, file id) *)
    per_repo : counts Int_tbl.t;  (** (pattern, repo id) *)
    dataset : counts Int_tbl.t;  (** pattern → corpus-wide *)
    mutable n_stmts : int;  (** statements recorded since the last flush *)
    mutable n_matches : int;  (** matches recorded since the last flush *)
  }

  (* Aggregates are written into their first part and read as the sum of
     all: every tally is an integer sum, so summing shards at read time
     equals merging them first, with no serial merge pass. *)
  type t = part array

  let create () =
    [|
      {
        identical_file = Hashtbl.create (1 lsl 12);
        identical_repo = Hashtbl.create (1 lsl 12);
        per_file = Int_tbl.create (1 lsl 12);
        per_repo = Int_tbl.create (1 lsl 12);
        dataset = Int_tbl.create (1 lsl 10);
        n_stmts = 0;
        n_matches = 0;
      };
    |]

  let sum = function [] -> create () | ts -> Array.concat ts

  let pack pattern_id id = (pattern_id lsl 31) lor (id land 0x7FFF_FFFF)

  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

  (** Record one scanned statement (for identical-statement counts). *)
  let add_stmt (t : t) (s : stmt_ctx) =
    let a = t.(0) in
    a.n_stmts <- a.n_stmts + 1;
    bump a.identical_file (s.file_id, s.tree_hash);
    bump a.identical_repo (s.repo_id, s.tree_hash)

  let add_counts tbl key (rel : Pattern.relation) =
    let c =
      match Int_tbl.find tbl key with
      | c -> c
      | exception Not_found ->
          let c = fresh_counts () in
          Int_tbl.add tbl key c;
          c
    in
    c.matches <- c.matches + 1;
    match rel with
    | Pattern.Satisfied -> c.sats <- c.sats + 1
    | Pattern.Violated _ -> c.viols <- c.viols + 1
    | Pattern.No_match -> ()

  (** Record one pattern check outcome on a statement. *)
  let add_outcome (t : t) (s : stmt_ctx) ~(pattern_id : int) (rel : Pattern.relation) =
    match rel with
    | Pattern.No_match -> ()
    | Pattern.Satisfied | Pattern.Violated _ ->
        let a = t.(0) in
        a.n_matches <- a.n_matches + 1;
        add_counts a.per_file (pack pattern_id s.file_id) rel;
        add_counts a.per_repo (pack pattern_id s.repo_id) rel;
        add_counts a.dataset pattern_id rel

  let flush_counts (t : t) =
    Array.iter
      (fun a ->
        Namer_telemetry.Telemetry.count ~by:a.n_stmts "agg.stmts";
        Namer_telemetry.Telemetry.count ~by:a.n_matches "agg.pattern_matches";
        a.n_stmts <- 0;
        a.n_matches <- 0)
      t

  let identical (t : t) tbl key =
    Array.fold_left
      (fun acc a -> acc + Option.value (Hashtbl.find_opt (tbl a) key) ~default:0)
      0 t

  let lookup (t : t) tbl key =
    let c = fresh_counts () in
    Array.iter
      (fun a ->
        match Int_tbl.find (tbl a) key with
        | d ->
            c.matches <- c.matches + d.matches;
            c.sats <- c.sats + d.sats;
            c.viols <- c.viols + d.viols
        | exception Not_found -> ())
      t;
    c
end

let n_features = 17

(** Feature names (indexed as in Table 1), for the weight table. *)
let names =
  [|
    "1:n_name_paths";
    "2:identical_stmts_file";
    "3:identical_stmts_repo";
    "4:satisfaction_rate_file";
    "5:satisfaction_rate_repo";
    "6:satisfaction_rate_dataset";
    "7:violations_file";
    "8:violations_repo";
    "9:violations_dataset";
    "10:satisfactions_file";
    "11:satisfactions_repo";
    "12:satisfactions_dataset";
    "13:targets_function_name";
    "14:n_condition_paths";
    "15:match_ratio";
    "16:edit_distance";
    "17:is_confusing_pair";
  |]

(** [extract agg pairs stmt pattern info] computes the 17-dimensional
    feature vector for one violation. *)
let extract (agg : Agg.t) (pairs : Confusing_pairs.t) (s : stmt_ctx)
    (p : Pattern.t) (info : Pattern.violation_info) : float array =
  let fi = float_of_int in
  let file_c = Agg.lookup agg (fun a -> a.Agg.per_file) (Agg.pack p.id s.file_id) in
  let repo_c = Agg.lookup agg (fun a -> a.Agg.per_repo) (Agg.pack p.id s.repo_id) in
  let data_c = Agg.lookup agg (fun a -> a.Agg.dataset) p.id in
  (* a statement not recorded counts itself once *)
  let identical tbl key = match Agg.identical agg tbl key with 0 -> 1 | n -> n in
  let rate (c : counts) = if c.matches = 0 then 0.0 else fi c.sats /. fi c.matches in
  let n_cond = List.length p.condition in
  let n_ded = List.length p.deduction in
  let match_ratio =
    let denom = s.n_paths - n_ded in
    if denom <= 0 then 1.0 else min 1.0 (fi n_cond /. fi denom)
  in
  [|
    (* 1 *) fi s.n_paths;
    (* 2 *) fi (identical (fun a -> a.Agg.identical_file) (s.file_id, s.tree_hash));
    (* 3 *) fi (identical (fun a -> a.Agg.identical_repo) (s.repo_id, s.tree_hash));
    (* 4 *) rate file_c;
    (* 5 *) rate repo_c;
    (* 6 *) rate data_c;
    (* 7 *) fi file_c.viols;
    (* 8 *) fi repo_c.viols;
    (* 9 *) fi data_c.viols;
    (* 10 *) fi file_c.sats;
    (* 11 *) fi repo_c.sats;
    (* 12 *) fi data_c.sats;
    (* 13 *) (if Pattern.targets_function_name p then 1.0 else 0.0);
    (* 14 *) fi n_cond;
    (* 15 *) match_ratio;
    (* 16 *) fi (Namer_util.Edit_distance.damerau info.Pattern.found info.Pattern.suggested);
    (* 17 *)
    (if Confusing_pairs.mem pairs (info.Pattern.found, info.Pattern.suggested) then 1.0
     else 0.0);
  |]
