(** The grace-period audit: a reader pinned across a writer's resize.

    This is the scenario epoch-based reclamation exists for, run as a
    deterministic single-domain check: pin a view, let the writer
    churn the table through several copy-publish-retire cycles
    (including growth), and then probe the {e pinned} view for every
    flow that was resident when it was pinned.  A correct
    implementation answers every probe from the retained region —
    and, because the reader is pinned, its retire backlog is visibly
    non-empty until the pin is dropped, after which {!TABLE.quiesce}
    drains it to zero.  An implementation that reclaims without
    honouring pins ({!Buggy_epoch}) scrubs the pinned region and
    misses every probe.

    [test/corpus/epoch_reclaim.prog] pins the same churn shape as a
    replayable oracle program (resize boundaries crossed with removes
    and re-inserts in flight), so the single-threaded half of the
    regression survives generator drift; this audit covers the half a
    replay cannot: the reader that outlives the region it reads. *)

(** The surface the audit drives.  {!Epoch.Packed} satisfies it (via a
    trivial adapter fixing [create]'s optional arguments);
    {!Buggy_epoch} satisfies it with the planted bug. *)
module type TABLE = sig
  type t
  type view

  val create : unit -> t
  val replace : t -> w0:int -> w1:int -> int -> unit
  val pin : t -> view
  val view_find : view -> w0:int -> w1:int -> int option
  val unpin : t -> unit
  val pending : t -> int
  val quiesce : t -> unit
end

type result = {
  probed : int;      (** Flows resident at pin time, all probed. *)
  wrong : int;       (** Probes the pinned view answered wrongly. *)
  pending_while_pinned : int;
      (** Retired regions backlogged while the reader was pinned — a
          correct table holds at least one (the pinned region). *)
  pending_after_quiesce : int;  (** Must drain to [0]. *)
  publishes_while_pinned : int;
      (** Writer publishes that happened across the pin — the audit
          forces enough churn for at least two growth publishes. *)
}

val passed : result -> bool
(** [wrong = 0 && pending_while_pinned > 0 && pending_after_quiesce = 0]. *)

val run : ?resident:int -> ?churn:int -> (module TABLE) -> result
(** Defaults: 12 resident flows probed, 64 churn inserts while pinned
    (enough to cross at least two growth boundaries from the 8-slot
    minimum).  Keys are synthetic two-word pairs; payloads encode the
    key so a stale or torn answer is detectable, not just a miss. *)

val pp_result : Format.formatter -> result -> unit
