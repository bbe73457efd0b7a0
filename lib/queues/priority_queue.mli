(** Binary-heap priority queue (highest priority dequeued first; FIFO among
    equal priorities, via insertion sequence numbers, so priority scheduling
    stays starvation-ordered and deterministic). *)

include Queue_intf.PRIORITY_QUEUE
