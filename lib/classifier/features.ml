(** The defect classifier's feature extraction — Table 1 of the paper.

    Given a violation (statement s, violated pattern p), seventeen high-level
    features are computed, most of them at three granularities (the file
    containing s, the repository containing s, and the entire mining
    dataset).  The aggregates needed by features 2–12 ({!Agg}) are
    complete before any feature vector is extracted. *)

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

(** Corpus-level aggregates: the tallies features 2–12 read. *)
module Agg = struct
  module Int_tbl = Hashtbl.Make (Int)

  (* Keys are dense ids: a (pattern, file) or (pattern, repo) pair packs
     into one int; (file, statement hash) stays a pair, since the hash
     uses every bit. *)
  let pack pattern_id id = (pattern_id lsl 31) lor (id land 0x7FFF_FFFF)

  (* Every key's tallies. *)
  type full = {
    identical_file : (int * int, int) Hashtbl.t;  (** (file id, hash) → count *)
    identical_repo : (int * int, int) Hashtbl.t;  (** (repo id, hash) → count *)
    per_file : counts Int_tbl.t;  (** (pattern, file id) *)
    per_repo : counts Int_tbl.t;  (** (pattern, repo id) *)
  }

  (* The keys some violations read, each numbered with a slot.  Only read
     once built, so every keyed part, on any domain, shares one. *)
  type keys = {
    k_file : int Int_tbl.t;  (** (pattern, file id) → tally slot *)
    k_repo : int Int_tbl.t;  (** (pattern, repo id) → tally slot *)
    k_identical_file : (int * int, int) Hashtbl.t;  (** (file id, hash) → count slot *)
    k_identical_repo : (int * int, int) Hashtbl.t;  (** (repo id, hash) → count slot *)
    k_hashes : unit Int_tbl.t;  (** the statement hashes of those keys *)
    n_tallies : int;
    n_counts : int;
  }

  type tallies =
    | Full of full
    | Dataset  (** no per-file, per-repo or identical-statement tallies *)
    | Keyed of { keys : keys; tally : int array; identical : int array }
        (** [tally] holds matches, satisfactions and violations, three ints
            per slot; [identical] one count per slot *)

  (* One shard's aggregates.  [dataset] holds the corpus-wide tallies,
     three ints per pattern id as in [Keyed]'s [tally]. *)
  type part = {
    tallies : tallies;
    mutable dataset : int array;
    mutable n_stmts : int;  (** statements recorded since the last flush *)
    mutable n_matches : int;  (** matches recorded since the last flush *)
  }

  (* Aggregates are written into their first part and read as the sum of
     all: every tally is an integer sum, so summing shards at read time
     equals merging them first, with no serial merge pass. *)
  type t = part array

  let part tallies = [| { tallies; dataset = [||]; n_stmts = 0; n_matches = 0 } |]

  let create () =
    part
      (Full
         {
           identical_file = Hashtbl.create (1 lsl 12);
           identical_repo = Hashtbl.create (1 lsl 12);
           per_file = Int_tbl.create (1 lsl 12);
           per_repo = Int_tbl.create (1 lsl 12);
         })

  let dataset () = part Dataset

  let keys (wants : (stmt_ctx * int) list) =
    let k_file = Int_tbl.create 1024 and k_repo = Int_tbl.create 1024 in
    let k_identical_file = Hashtbl.create 1024 and k_identical_repo = Hashtbl.create 1024 in
    let k_hashes = Int_tbl.create 1024 and n_tallies = ref 0 and n_counts = ref 0 in
    let number mem add tbl key n =
      if not (mem tbl key) then begin
        add tbl key !n;
        incr n
      end
    in
    List.iter
      (fun ((s : stmt_ctx), pattern_id) ->
        number Int_tbl.mem Int_tbl.add k_file (pack pattern_id s.file_id) n_tallies;
        number Int_tbl.mem Int_tbl.add k_repo (pack pattern_id s.repo_id) n_tallies;
        number Hashtbl.mem Hashtbl.add k_identical_file (s.file_id, s.tree_hash) n_counts;
        number Hashtbl.mem Hashtbl.add k_identical_repo (s.repo_id, s.tree_hash) n_counts;
        Int_tbl.replace k_hashes s.tree_hash ())
      wants;
    {
      k_file;
      k_repo;
      k_identical_file;
      k_identical_repo;
      k_hashes;
      n_tallies = !n_tallies;
      n_counts = !n_counts;
    }

  let keyed keys =
    part
      (Keyed
         {
           keys;
           tally = Array.make (3 * keys.n_tallies) 0;
           identical = Array.make keys.n_counts 0;
         })

  let sum = function [] -> create () | ts -> Array.concat ts

  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

  (* one more in [counts] at [key]'s slot, when [key] has one *)
  let bump_slot counts tbl key =
    match Hashtbl.find tbl key with
    | i -> counts.(i) <- counts.(i) + 1
    | exception Not_found -> ()

  (** Record one scanned statement (for identical-statement counts). *)
  let add_stmt (t : t) (s : stmt_ctx) =
    let a = t.(0) in
    match a.tallies with
    | Full f ->
        a.n_stmts <- a.n_stmts + 1;
        bump f.identical_file (s.file_id, s.tree_hash);
        bump f.identical_repo (s.repo_id, s.tree_hash)
    | Dataset -> a.n_stmts <- a.n_stmts + 1
    | Keyed { keys; identical; _ } ->
        if Int_tbl.mem keys.k_hashes s.tree_hash then begin
          bump_slot identical keys.k_identical_file (s.file_id, s.tree_hash);
          bump_slot identical keys.k_identical_repo (s.repo_id, s.tree_hash)
        end

  (* the three tallies at [base] of [arr], for one match *)
  let tally arr base (rel : Pattern.relation) =
    arr.(base) <- arr.(base) + 1;
    match rel with
    | Pattern.Satisfied -> arr.(base + 1) <- arr.(base + 1) + 1
    | Pattern.Violated _ -> arr.(base + 2) <- arr.(base + 2) + 1
    | Pattern.No_match -> ()

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

  let add_dataset a pattern_id rel =
    let base = 3 * pattern_id in
    if base + 2 >= Array.length a.dataset then begin
      let bigger = Array.make (max (base + 3) (2 * Array.length a.dataset)) 0 in
      Array.blit a.dataset 0 bigger 0 (Array.length a.dataset);
      a.dataset <- bigger
    end;
    a.n_matches <- a.n_matches + 1;
    tally a.dataset base rel

  (* one match's tallies at [key]'s slot, when [key] has one *)
  let keyed_tally arr tbl key rel =
    match Int_tbl.find tbl key with
    | i -> tally arr (3 * i) rel
    | exception Not_found -> ()

  (** Record one pattern check outcome on a statement. *)
  let add_outcome (t : t) (s : stmt_ctx) ~(pattern_id : int) (rel : Pattern.relation) =
    match rel with
    | Pattern.No_match -> ()
    | Pattern.Satisfied | Pattern.Violated _ -> (
        let a = t.(0) in
        match a.tallies with
        | Full f ->
            add_counts f.per_file (pack pattern_id s.file_id) rel;
            add_counts f.per_repo (pack pattern_id s.repo_id) rel;
            add_dataset a pattern_id rel
        | Dataset -> add_dataset a pattern_id rel
        | Keyed { keys; tally = arr; _ } ->
            keyed_tally arr keys.k_file (pack pattern_id s.file_id) rel;
            keyed_tally arr keys.k_repo (pack pattern_id s.repo_id) rel)

  let flush_counts (t : t) =
    Array.iter
      (fun a ->
        Namer_telemetry.Telemetry.count ~by:a.n_stmts "agg.stmts";
        Namer_telemetry.Telemetry.count ~by:a.n_matches "agg.pattern_matches";
        a.n_stmts <- 0;
        a.n_matches <- 0)
      t

  (* Reads: each sums its key over every part. *)

  let add_to (c : counts) arr base =
    c.matches <- c.matches + arr.(base);
    c.sats <- c.sats + arr.(base + 1);
    c.viols <- c.viols + arr.(base + 2)

  (* the tallies of a (pattern, file) or (pattern, repo) key: [full] and
     [keyed] pick the table of that scope *)
  let counts (t : t) full keyed key =
    let c = fresh_counts () in
    Array.iter
      (fun a ->
        match a.tallies with
        | Full f -> (
            match Int_tbl.find (full f) key with
            | d ->
                c.matches <- c.matches + d.matches;
                c.sats <- c.sats + d.sats;
                c.viols <- c.viols + d.viols
            | exception Not_found -> ())
        | Dataset -> ()
        | Keyed { keys; tally = arr; _ } -> (
            match Int_tbl.find (keyed keys) key with
            | i -> add_to c arr (3 * i)
            | exception Not_found -> ()))
      t;
    c

  let file_counts t ~pattern_id ~file_id =
    counts t (fun f -> f.per_file) (fun k -> k.k_file) (pack pattern_id file_id)

  let repo_counts t ~pattern_id ~repo_id =
    counts t (fun f -> f.per_repo) (fun k -> k.k_repo) (pack pattern_id repo_id)

  let dataset_counts (t : t) ~pattern_id =
    let c = fresh_counts () in
    let base = 3 * pattern_id in
    Array.iter (fun a -> if base + 2 < Array.length a.dataset then add_to c a.dataset base) t;
    c

  let identical (t : t) full keyed key =
    Array.fold_left
      (fun acc a ->
        match a.tallies with
        | Full f -> acc + Option.value (Hashtbl.find_opt (full f) key) ~default:0
        | Dataset -> acc
        | Keyed { keys; identical; _ } -> (
            match Hashtbl.find (keyed keys) key with
            | i -> acc + identical.(i)
            | exception Not_found -> acc))
      0 t

  let identical_in_file t (s : stmt_ctx) =
    identical t (fun f -> f.identical_file) (fun k -> k.k_identical_file) (s.file_id, s.tree_hash)

  let identical_in_repo t (s : stmt_ctx) =
    identical t (fun f -> f.identical_repo) (fun k -> k.k_identical_repo) (s.repo_id, s.tree_hash)
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
  let file_c = Agg.file_counts agg ~pattern_id:p.id ~file_id:s.file_id in
  let repo_c = Agg.repo_counts agg ~pattern_id:p.id ~repo_id:s.repo_id in
  let data_c = Agg.dataset_counts agg ~pattern_id:p.id in
  (* a statement not recorded counts itself once *)
  let identical n = match n with 0 -> 1 | n -> n in
  let rate (c : counts) = if c.matches = 0 then 0.0 else fi c.sats /. fi c.matches in
  let n_cond = List.length p.condition in
  let n_ded = List.length p.deduction in
  let match_ratio =
    let denom = s.n_paths - n_ded in
    if denom <= 0 then 1.0 else min 1.0 (fi n_cond /. fi denom)
  in
  [|
    (* 1 *) fi s.n_paths;
    (* 2 *) fi (identical (Agg.identical_in_file agg s));
    (* 3 *) fi (identical (Agg.identical_in_repo agg s));
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
