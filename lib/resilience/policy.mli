(** Failure-handling policy of the commit pipeline.

    The paper's Algorithm 5.1 runs view maintenance "as the last
    operation of a transaction" and never considers a half-applied
    commit.  Our pipeline is multi-phase (base deletes, parallel
    differential maintenance, base inserts, recomputes), so an
    exception in the middle would tear the database.  The policy says
    what the manager does instead. *)

type t =
  | Abort
      (** All-or-nothing: any failure rolls the whole commit back to
          the exact pre-commit state (base relations and
          materializations) and raises [Manager.Commit_failed]. *)
  | Quarantine
      (** Per-view isolation: a failing view is rolled back to its
          pre-commit materialization and marked quarantined; sibling
          views and the base update commit normally.  The quarantined
          view self-heals on its next access or commit.  Failures in
          the base-apply phases still abort the whole commit. *)

val name : t -> string
