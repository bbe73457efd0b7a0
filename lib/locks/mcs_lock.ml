module Make (P : Mp.Mp_intf.PRIMS) = struct
  type node = { locked : bool P.cell; next : node option P.cell }

  (* [holder] remembers both the holder's node and the {e physical}
     [Some node] box that was written into [tail]: compare_and_set on a
     boxed option only succeeds on the identical box, so unlock must CAS
     with exactly the value lock installed. *)
  type mutex_lock = {
    tail : node option P.cell;
    holder : (node * node option) P.cell;
  }

  let holder_must_unlock = true
  let fresh_node () = { locked = P.make false; next = P.make None }

  let mutex_lock () =
    let dummy = fresh_node () in
    { tail = P.make None; holder = P.make (dummy, None) }

  let lock l =
    let mine = fresh_node () in
    P.set mine.locked true;
    let boxed = Some mine in
    (match P.exchange l.tail boxed with
    | None -> () (* uncontended *)
    | Some pred ->
        P.set pred.next (Some mine);
        while P.get mine.locked do
          P.on_spin ();
          P.pause ()
        done);
    P.set l.holder (mine, boxed)

  let try_lock l =
    let mine = fresh_node () in
    let boxed = Some mine in
    if P.compare_and_set l.tail None boxed then begin
      P.set l.holder (mine, boxed);
      true
    end
    else false

  let unlock l =
    let mine, boxed = P.get l.holder in
    match P.get mine.next with
    | Some succ -> P.set succ.locked false
    | None ->
        (* no known successor: try to swing the tail back to empty; if a new
           waiter raced in, wait for it to link itself *)
        if not (P.compare_and_set l.tail boxed None) then begin
          let rec wait_link () =
            match P.get mine.next with
            | Some succ -> P.set succ.locked false
            | None ->
                P.pause ();
                wait_link ()
          in
          wait_link ()
        end
  let locked l f = Mp.Mp_intf.locked ~lock ~unlock l f

end
