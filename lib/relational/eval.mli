(** Conjunctive-query evaluation.

    Every entry point runs the compiled evaluator: the query is
    canonicalized — variables numbered into integer slots, constants
    abstracted into parameters — and lowered once into a {!Plan.t}
    whose join order and access paths are fixed per binding stage.
    Plans are cached on the database instance keyed by query shape, so
    isomorphic probes (the common case in the coordination algorithms:
    thousands of structurally identical queries differing only in
    constants) compile exactly once.  The hot path runs over a
    slot-indexed binding frame with no string hashing and no per-node
    re-planning.  [?cache:false] recompiles on every call, which
    isolates the cache's contribution in the ablation benchmarks.
    {!Naive} is the independent reference the tests check it against.

    Each top-level call counts as one database probe
    ({!Database.count_probe}), mirroring "one SQL query" in the paper's
    experiments; plan-cache hits/misses and tuples scanned land in
    {!Database.counters}. *)

module Binding : Map.S with type key = string
(** Valuations: finite maps from variable names to values. *)

type valuation = Value.t Binding.t

exception Unknown_relation of string
(** Raised when a query mentions a relation absent from the instance.
    (Physically equal to {!Plan.Unknown_relation}.) *)

exception Arity_mismatch of string * int * int
(** [Arity_mismatch (rel, got, expected)].
    (Physically equal to {!Plan.Arity_mismatch}.) *)

val find_first : ?cache:bool -> Database.t -> Cq.t -> valuation option
(** Choose-1 semantics: the first satisfying valuation, if any.  The empty
    query succeeds with the empty valuation. *)

val satisfiable : ?cache:bool -> Database.t -> Cq.t -> bool

val find_all : ?cache:bool -> ?limit:int -> Database.t -> Cq.t -> valuation list
(** All satisfying valuations (up to [limit] when given), in search order.
    Two valuations agreeing on all variables of the query are returned
    once. *)

val count : ?cache:bool -> Database.t -> Cq.t -> int
(** Number of distinct satisfying valuations.  No per-solution
    valuation map is materialized. *)

val distinct_projections :
  ?cache:bool -> Database.t -> Cq.t -> string list -> Tuple.Set.t
(** [distinct_projections db q vars] is the set of distinct tuples of
    values the listed variables take over all satisfying valuations.
    @raise Invalid_argument if some listed variable does not occur in [q]. *)

val check_ground : Database.t -> Cq.t -> bool
(** [check_ground db q] for a variable-free query: true iff every atom's
    tuple is present.  Counts as one probe. *)

val pp_valuation : Format.formatter -> valuation -> unit

(** {2 Repeat-probe handles}

    A query canonicalized and compiled once, then re-executed many
    times with swapped constants — the raw probe loop with the
    per-probe scaffolding (Obs spans, resilience guard, valuation
    snapshots) stripped.  Each execution still counts one probe and
    its scanned tuples.  On a columnar database ({!Database.backend})
    the [count]/[satisfiable] path is allocation-free in steady state;
    on a row database it is the ordinary compiled executor.  A handle
    is valid until a table is created or dropped, and must not be
    shared across domains. *)
module Prepared : sig
  type t

  val make : Database.t -> Cq.t -> t
  (** Compiles (or fetches from the plan cache) immediately; the usual
      plan-cache hit/miss is counted here, once, not per execution.
      @raise Plan.Unknown_relation, Plan.Arity_mismatch on bad queries. *)

  val nparams : t -> int
  (** Number of constant parameters, in first-occurrence order. *)

  val set_param : t -> int -> Value.t -> unit
  (** [set_param t j v] replaces the [j]-th constant for subsequent
      executions. *)

  val count : t -> int

  val satisfiable : t -> bool
end

module Naive : sig
  val find_all : Database.t -> Cq.t -> valuation list
  (** Reference semantics: enumerate the full cross product of candidate
      tuples for each atom and filter.  Exponential; for tests only.
      Raises {!Unknown_relation} and {!Arity_mismatch} like the
      compiled path, whatever the data. *)
end
