(** Buffer pool over a {!Disk} with pluggable replacement.

    Section 2 of the paper derives page-fault rates for tree traversals
    under the assumption of a *random* replacement policy with [|M|] resident
    pages; this module implements that policy (plus LRU and Clock for the
    ablation in DESIGN.md) and counts hits and faults in the environment's
    counters.  A miss charges one random read.  Frames are read-only
    copies of disk pages, so eviction writes nothing back. *)

type policy =
  | Random_replacement of Mmdb_util.Xorshift.t
      (** Evict a uniformly random resident frame — the paper's §2 model. *)
  | Lru
  | Clock
  | Fifo  (** evict the longest-resident page regardless of use *)
  | Lru_2
      (** evict the page with the oldest {e second}-most-recent access
          (LRU-K with K = 2); pages touched only once rank below all
          twice-touched pages — §6's "buffer management strategies" *)

type t

val create : disk:Disk.t -> capacity:int -> policy -> t
(** [create ~disk ~capacity policy] is an empty pool of [capacity] frames
    ([|M|] pages).  @raise Invalid_argument if [capacity <= 0]. *)

val resident : t -> int
(** Number of frames currently holding a page. *)

val is_resident : t -> int -> bool
(** [is_resident t pid] is true when [pid] occupies a frame (no charge,
    no recency update). *)

val get : t -> int -> bytes
(** [get t pid] returns the page, faulting it in (one random read, one
    fault counted) if absent; a hit counts [pool_hits] and costs nothing.
    The returned bytes are the live frame, which callers must not mutate.
    @raise Mmdb_fault.Fault.Io_error when an armed fault plan makes the
    fault-in read exhaust its retry budget.
    @raise Mmdb_fault.Fault.Unrecoverable when detected frame corruption
    cannot be rebuilt from any surviving redundancy. *)

val scrub : t -> int
(** Verify every resident frame against its disk image and reload (one
    charged random read each) any that diverge — e.g. after the disk's
    fault plan rotted a frame in memory.  Returns the number of frames
    repaired; detections and repairs are tallied in the disk's fault
    plan. *)
