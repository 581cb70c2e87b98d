(** Recombining a partitioned log (Section 5.2).

    "For recovery processing, a single log is recreated by merging the log
    fragments, as in a sort-merge.  For example, to roll backwards through
    the log, the most recent log page in each fragment is examined.  The
    page with the most recent timestamp is processed first, it is replaced
    by the next page in that fragment, and the most recent log page of the
    group is again determined."

    Pages from different devices may complete out of LSN order (an idle
    device finishes a later-filled page before a busy one finishes an
    earlier page), but the commit-group dependency ordering guarantees
    that any two {e conflicting} transactions' pages are
    timestamp-ordered, so the merged sequence is a correct redo/undo
    order. *)

val merge : (float * Log_record.t list) list list -> Log_record.t list
(** [merge fragments] combines per-device page lists (each ascending by
    completion time) into one forward log, ordering pages by completion
    timestamp with the page's minimum LSN breaking ties and, when both
    are equal (or a page holds no records at all — its minimum LSN is
    vacuous), the page's fragment position.  The order is therefore a
    deterministic function of the input alone: equal-timestamp pages
    across devices and empty fragments cannot reshuffle with heap
    internals.  [merge [] = []]. *)
