type site =
  | Disk_read
  | Disk_write
  | Pool_frame
  | Log_write
  | Log_read
  | Stable_crash
  | Snapshot

type kind =
  | Torn_write
  | Bit_flip_read
  | Bit_flip_rest
  | Io_transient of { failures : int }
  | Battery_droop of { batches : int }

type tally = {
  mutable injected : int;
  mutable detected : int;
  mutable retried : int;
  mutable repaired : int;
  mutable unrecoverable : int;
  mutable retry_backoff : float;
      (* simulated seconds spent in retry backoff, accumulated alongside
         [retried] *)
}

let tally_create () =
  {
    injected = 0;
    detected = 0;
    retried = 0;
    repaired = 0;
    unrecoverable = 0;
    retry_backoff = 0.0;
  }

let tally_copy t =
  {
    injected = t.injected;
    detected = t.detected;
    retried = t.retried;
    repaired = t.repaired;
    unrecoverable = t.unrecoverable;
    retry_backoff = t.retry_backoff;
  }

let tally_total t =
  t.injected + t.detected + t.retried + t.repaired + t.unrecoverable

let pp_tally ppf t =
  Format.fprintf ppf
    "injected=%d detected=%d retried=%d repaired=%d unrecoverable=%d"
    t.injected t.detected t.retried t.repaired t.unrecoverable;
  if t.retry_backoff > 0.0 then
    Format.fprintf ppf " backoff=%.1fms" (t.retry_backoff *. 1e3)

type error = { code : string; site : string; detail : string }

exception Io_error of error
exception Unrecoverable of error

let io_error ~code ~site detail = raise (Io_error { code; site; detail })

let unrecoverable ~code ~site detail =
  raise (Unrecoverable { code; site; detail })

let error_to_string e = Printf.sprintf "%s at %s: %s" e.code e.site e.detail

let code_catalogue =
  [
    ("FAULT001", "torn page write: only a prefix of the page persisted");
    ("FAULT002", "checksum mismatch detected on read (bit flip)");
    ("FAULT003", "transient I/O error injected (retried with backoff)");
    ("FAULT004", "I/O retry budget exhausted");
    ("FAULT005", "unknown page / sector not found");
    ("FAULT006", "page size mismatch on write");
    ("FAULT007", "stable-memory battery droop: newest batches lost at crash");
    ("FAULT008", "log tail truncated at last checksum-valid record");
    ("FAULT009", "corrupt page rebuilt from checkpoint plus log");
    ("FAULT010", "stable-memory batch underflow (drop on empty)");
    ("FAULT011", "unrecoverable media corruption");
    ("FAULT012", "crash during recovery replay; recovery restarted");
  ]

(* The exception printers keep typed faults legible in test failures. *)
let () =
  Printexc.register_printer (function
    | Io_error e -> Some ("Fault.Io_error " ^ error_to_string e)
    | Unrecoverable e -> Some ("Fault.Unrecoverable " ^ error_to_string e)
    | _ -> None)
