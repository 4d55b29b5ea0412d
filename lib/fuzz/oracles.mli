(** Metamorphic oracles over a trained model.

    A fuzzer without an oracle can only find crashes.  These four
    properties let it find {e wrong answers}: each states how reports must
    respond to a semantics-preserving (or semantics-known) transformation
    of the input, with no reference to what the "correct" reports are.

    {ol
    {- {b fix / re-inject} — applying a report's own suggested fix to the
       file makes that report disappear; restoring the original text (i.e.
       re-injecting the naming issue into the now-clean file) brings it
       back.  The scanner's reports must be caused by the text they blame.}
    {- {b alpha-renaming} — consistently renaming a subtoken disjoint from
       the model's vocabulary (mined pair words, pattern words, language
       keywords) across {e every} identifier that carries it must not
       change the file's report count.  Patterns live in subtoken space
       ([self._limit = limit] is one agreement family), so the renaming
       must follow the family, and the model must care only about names it
       has seen.}
    {- {b permutation} — shuffling file order and changing the worker
       count must leave the rendered report set byte-identical.  The
       pipeline's determinism contract, checked from the outside.}
    {- {b model agreement} — a build's own violation set equals
       {!Namer_core.Namer.scan_with_model} of the same files against
       {!Namer_core.Namer.model_of} of that build.  The train-once /
       scan-many split must not change what is reported.  Both share one
       anchored matcher ({!Namer_pattern.Pattern.Matcher}), so the scan is
       also compared with a plain re-match of every file: each
       {!Namer_pattern.Pattern.Store.candidates} entry checked and the
       reports deduplicated independently.}
    {- {b merge split} — dealing the corpus into random slices, training
       each into a partial model, merging the partials in a shuffled
       order and finalizing must scan the corpus byte-identically to the
       direct build.  The merge-algebra contract
       [train(A+B) ≡ merge(train A, train B)], checked from the
       outside.}} *)

module Namer = Namer_core.Namer
module Corpus = Namer_corpus.Corpus

type result = {
  o_name : string;
  o_pass : bool;
  o_detail : string;  (** what was exercised, or the first counterexample *)
}

val fix_reinject :
  rng:Namer_util.Prng.t -> Namer.model -> Corpus.file list -> result

val alpha_rename :
  rng:Namer_util.Prng.t -> Namer.model -> Corpus.file list -> result

val permutation :
  rng:Namer_util.Prng.t -> Namer.model -> Corpus.file list -> result

val model_agreement : Namer.t -> Namer.model -> Corpus.file list -> result

val merge_split :
  rng:Namer_util.Prng.t ->
  Namer.t -> Namer.model -> Corpus.file list ->
  commits:(string * string) list -> result

(** All five, each on an independent child of [rng] (so adding an oracle
    never perturbs the others' draws).  [t] must be the build [model] came
    from, [files] its corpus and [commits] that corpus's commit history.
    The build must be classifier-free (the fuzzer's models are): the
    merge-split oracle compares reports across statement orderings, and
    the labeled-sample draw is order-sensitive by design. *)
val run_all :
  rng:Namer_util.Prng.t ->
  t:Namer.t ->
  model:Namer.model ->
  files:Corpus.file list ->
  commits:(string * string) list ->
  result list
