(** Buffer pool over a {!Disk} with pluggable replacement.

    Section 2 of the paper derives page-fault rates for tree traversals
    under the assumption of a *random* replacement policy with [|M|] resident
    pages; this module implements that policy (plus LRU and Clock for the
    ablation in DESIGN.md) and counts hits and faults in the environment's
    counters.  A miss charges one random I/O; a dirty eviction charges a
    random write. *)

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

val capacity : t -> int

val resident : t -> int
(** Number of frames currently holding a page. *)

val is_resident : t -> int -> bool
(** [is_resident t pid] is true when [pid] occupies a frame (no charge,
    no recency update). *)

val get : t -> int -> bytes
(** [get t pid] returns the page, faulting it in (one random read, one
    fault counted) if absent; a hit counts [pool_hits] and costs nothing.
    The returned bytes are the live frame: callers that mutate it must call
    {!mark_dirty}.  Eviction of a dirty frame writes it back (one random
    write).
    @raise Mmdb_fault.Fault.Io_error when an armed fault plan makes the
    fault-in read (or dirty write-back) exhaust its retry budget.
    @raise Mmdb_fault.Fault.Unrecoverable when detected frame corruption
    cannot be rebuilt from any surviving redundancy. *)

val mark_dirty : t -> int -> unit
(** Flag a resident page as modified.  @raise Invalid_argument if the page
    is not resident. *)

val pin : t -> int -> bytes
(** [pin t pid] is {!get} plus an eviction pin: the frame cannot be chosen
    as a victim until a matching {!unpin}.  Pins nest.
    @raise Invalid_argument (from the fault path) when the page is absent
    and every resident frame is pinned. *)

val unpin : t -> int -> unit
(** Release one pin.  Unpinning a page that is absent or has no pins is a
    protocol violation: it is {e recorded} (see {!stats}) rather than
    raised, so {!Mmdb_verify.Pool_check} can report it. *)

val pin_count : t -> int -> int
(** Current pin count ([0] when absent). *)

val flush : t -> int -> unit
(** Write one resident dirty page back (random write); no-op when clean or
    absent. *)

val flush_all : t -> unit
(** Write back every dirty frame; pages stay resident. *)

val drop_all : t -> unit
(** Discard every frame {e without} write-back — simulates losing volatile
    memory in a crash. *)

val scrub : t -> int
(** Verify every {e clean} resident frame against its disk image and
    reload (one charged random read each) any that diverge — e.g. after
    the disk's fault plan rotted a frame in memory.  Dirty frames are
    skipped; their divergence is legitimate.  Returns the number of
    frames repaired; detections and repairs are tallied in the disk's
    fault plan. *)

type stats = {
  dirtied : int;  (** clean->dirty transitions since creation *)
  writebacks : int;  (** dirty frames written back (flush or eviction) *)
  dropped_dirty : int;  (** dirty frames discarded by {!drop_all} *)
  dirty_resident : int;  (** frames currently dirty *)
  pinned_pages : (int * int) list;  (** (pid, pins) with pins > 0, sorted *)
  unpin_underflows : int;  (** unmatched {!unpin} calls *)
}

val stats : t -> stats
(** Accounting snapshot.  Invariant audited by
    {!Mmdb_verify.Pool_check}: [dirtied = writebacks + dropped_dirty +
    dirty_resident]. *)
