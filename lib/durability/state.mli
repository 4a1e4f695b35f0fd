(** A serializable image of the whole engine state — base relations,
    every view's materialization (inner state included for grouped
    views), banked pending deltas, and per-view health — plus the
    commit sequence number and the WAL position it corresponds to.

    This is the checkpoint payload and the unit of comparison for the
    crash-recovery oracle: two states are interchangeable iff {!diff}
    returns [None].  Health deliberately omits backtraces (they are
    diagnostic text, not state) so a recovered quarantine compares
    equal to the live one it mirrors. *)

open Relalg

type health =
  | Healthy
  | Quarantined of {
      error : string;
      since : int;
      heal_failures : int;
      next_eligible : int;
    }
  | Disabled of { error : string; since : int; heal_failures : int }

type view_state = {
  view : string;
  health : health;
  contents : Relation.t;
  grouped : Relation.t option;
      (** inner SPJ materialization of a GROUP BY view *)
  pending : (string * Relation.t * Relation.t) list;
      (** banked deltas: relation name, composed inserts, deletes *)
}

type t = {
  seq : int;  (** manager commit sequence at capture *)
  lsn : int;  (** last WAL record this state covers *)
  relations : (string * Relation.t) list;  (** base relations, by name *)
  views : view_state list;  (** definition order *)
}

(** A deep copy: every relation is copied, so the result stays fixed
    while the engine the image was taken from moves on. *)
val copy : t -> t

(** [encode ?flush b t] appends [t]'s encoding to [b].  [flush]
    streams it as in {!Codec.w_relation}: the buffer is handed on and
    cleared between tuples whenever it reaches {!Codec.chunk} bytes, and
    what is left at the end stays in [b] for the caller. *)
val encode : ?flush:(Buffer.t -> unit) -> Buffer.t -> t -> unit

val decode : Codec.reader -> t
val w_health : Buffer.t -> health -> unit
val r_health : Codec.reader -> health

(** First difference between two states, human-readable, or [None] when
    they are bit-identical (counters, health and pending included). *)
val diff : t -> t -> string option

val equal : t -> t -> bool
val pp_health : Format.formatter -> health -> unit
