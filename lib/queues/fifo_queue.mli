(** FIFO queue (two-list functional queue with mutable endpoints).
    Amortized O(1) [enq]/[deq].  Not thread-safe: hold a lock around every
    operation when it is shared between procs, exactly as the paper's
    Figure 3 does. *)

include Queue_intf.QUEUE_EXT
