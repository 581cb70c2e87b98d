(** Write-ahead-log records (Section 5).

    The paper's "typical" transaction writes 400 bytes of log: 40 bytes of
    begin/end records plus 360 bytes of old/new values.  Records here are
    structured values with explicit byte-size accounting (the experiments
    depend on byte volumes, not on a particular wire encoding); §5.4's
    compression — dropping old values once a transaction is known
    committed — is a size mode.

    Checkpoints leave a bracket in the log: a fuzzy checkpoint writes
    [Ckpt_begin], flushes the log (the WAL rule), sweeps dirty data pages,
    then writes [Ckpt_end].  A durable [Ckpt_end] therefore certifies that
    every data-page write of that checkpoint hit the snapshot — the
    property {!Mmdb_verify.Log_check} audits as "checkpoint bracketing". *)

type t =
  | Begin of { txn : int; lsn : int }
  | Update of {
      txn : int;
      lsn : int;
      slot : int;  (** which database record was changed *)
      old_value : int;
      new_value : int;
    }
  | Command of { txn : int; lsn : int; ops : (int * int) list }
      (** Command (logical) logging: the transaction's whole effect as
          [(slot, delta)] operations, re-executed at replay.  One
          command record replaces the transaction's update records —
          much smaller on disk (8 bytes per operation vs 60), but replay
          must re-run the operations.  A command whose slots span
          replay partitions is split by partition, each op replayed
          in its own slot's partition (see {!Replay}).  Undo of a non-terminated command subtracts its
          deltas. *)
  | Commit of { txn : int; lsn : int }
  | Abort of { txn : int; lsn : int }
  | Ckpt_begin of { lsn : int }
      (** fuzzy checkpoint started; not bound to a transaction *)
  | Ckpt_end of { lsn : int }
      (** all dirty pages of the matching [Ckpt_begin] reached the
          snapshot *)

val lsn : t -> int

val txn : t -> int option
(** The owning transaction; [None] for checkpoint markers. *)

val committed : t list -> int list
(** The transactions [log] holds a Commit record for, in log order. *)

val size_bytes : compressed:bool -> t -> int
(** Begin/Commit/Abort and checkpoint markers: 20 bytes each (the paper's
    40 for begin+end).  Update: 60 bytes full (30 old value + 30 new
    value), 30 compressed (old value dropped — §5.4: "approximately half
    of the size of the log stores the old values").  Command: 20-byte
    header plus 8 bytes per operation, in both modes (a command carries
    no old values to drop). *)

val max_command_ops : int
(** Operation-count ceiling of the command wire format (one count
    byte): 255. *)

(** {2 Wire encoding}

    Each record serializes to exactly [size_bytes] bytes — the model
    sizes double as the physical layout — with a CRC-32 of the record in
    its last four bytes.  Log pages are runs of encoded records; a torn
    page write leaves a prefix whose first damaged record fails its CRC,
    which is how recovery finds the last valid record of the tail. *)

val encode : compressed:bool -> t -> bytes
(** Standalone encoding, [size_bytes ~compressed] long. *)

val encode_into : compressed:bool -> t -> bytes -> pos:int -> int
(** [encode_into ~compressed r buf ~pos] writes the encoding at [pos]
    and returns the number of bytes written.
    @raise Invalid_argument if the record does not fit. *)

val decode_run : bytes -> pos:int -> len:int -> t list * string option
(** Decode a packed run of records, stopping at the end of the window or
    the first undecodable byte: a bad tag, a truncated record or a CRC
    mismatch.  Compressed updates decode with [old_value = 0]: the old
    value was dropped (§5.4), legal only for transactions known
    committed, which are never undone.  A page image has no padding, so a zero
    byte where a record should start is a bad tag, not an end.  Returns
    the records that decoded cleanly and the error that stopped the
    walk, if any — the torn-tail truncation primitive: everything
    before the error is checksum-valid, everything after is discarded. *)
