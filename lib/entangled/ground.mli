(** Grounding a combined query: the single database probe per candidate
    set, extended to a full assignment over all member variables. *)

open Relational

val solve :
  ?minimize:bool ->
  Database.t ->
  Query.t array ->
  members:int list ->
  Subst.t ->
  Eval.valuation option
(** [solve db queries ~members subst] evaluates the members' combined body
    under [subst] with choose-1 semantics.

    [minimize] (default [false]) first replaces the combined body by its
    core ({!Relational.Containment.minimize_with_retraction}) and maps
    the witness back through the retraction — fewer joins, identical
    satisfiability, still a full Definition-1 assignment.  On success the returned
    valuation covers {e every} variable of every member: body variables
    from the database witness, head/post variables through the unifier,
    and any variable left unconstrained (possible when unification bound
    no constant and the body never mentions it) from the instance's active
    domain — Definition 1 only asks for {e some} domain value.  Returns
    [None] when the body is unsatisfiable or a free variable exists while
    the active domain is empty.

    The value a free variable gets is the least active-domain value under
    {!Relational.Value.compare} ({!Relational.Database.min_value}), so
    fired assignments, and the journals recording them, are deterministic.
    It is cached on {!Relational.Database.data_version}: one scan per
    version, not one per candidate.  Parallel shards share the cache
    through their worker views and may race to fill it; the race is
    benign because every racer computes the same value for the version
    it read, and a value stored under an older version is never returned
    once the version has moved. *)

val assignment_of :
  Database.t ->
  Query.t array ->
  members:int list ->
  Subst.t ->
  Eval.valuation ->
  Eval.valuation option
(** The valuation-extension part of {!solve}, split out so callers that
    already hold a body witness can reuse it. *)
