let table fmt ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell ->
         if i < cols then width.(i) <- max width.(i) (String.length cell)))
    all;
  let print_row r =
    List.iteri
      (fun i cell ->
        if i > 0 then Format.pp_print_string fmt "  ";
        Format.fprintf fmt "%-*s" width.(i) cell)
      r;
    Format.pp_print_newline fmt ()
  in
  print_row header;
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') width)) in
  Format.fprintf fmt "%s@." rule;
  List.iter print_row rows

let section fmt title =
  let bar = String.make (String.length title + 8) '=' in
  Format.fprintf fmt "@.%s@.==  %s  ==@.%s@.@." bar title bar

let series fmt ~xlabel ~xs ~rows =
  let header = xlabel :: List.map string_of_int xs in
  let rows =
    List.map
      (fun (name, vals) ->
        name :: List.map (fun v -> Printf.sprintf "%.2f" v) vals)
      rows
  in
  table fmt ~header ~rows

let chart fmt ~xs ~rows =
  let height = 16 in
  let max_y =
    List.fold_left
      (fun acc (_, vals) -> List.fold_left max acc vals)
      1. rows
  in
  let n = List.length xs in
  let width = n * 4 in
  let grid = Array.make_matrix (height + 1) width ' ' in
  let plot c col v =
    let row = int_of_float (v /. max_y *. float_of_int height +. 0.5) in
    let row = max 0 (min height row) in
    if grid.(height - row).(col) = ' ' then grid.(height - row).(col) <- c
    else grid.(height - row).(col) <- '*'
  in
  (* linear-ideal reference *)
  List.iteri
    (fun i x -> if float_of_int x <= max_y then plot '.' (i * 4) (float_of_int x))
    xs;
  List.iteri
    (fun r (_, vals) ->
      let c = Char.chr (Char.code 'A' + (r mod 26)) in
      List.iteri (fun i v -> plot c (i * 4) v) vals)
    rows;
  Array.iteri
    (fun i line ->
      let y = max_y *. float_of_int (height - i) /. float_of_int height in
      Format.fprintf fmt "%6.1f |%s@." y (String.init width (fun j -> line.(j))))
    grid;
  Format.fprintf fmt "       +%s@." (String.make width '-');
  Format.fprintf fmt "        %s@."
    (String.concat ""
       (List.map (fun x -> Printf.sprintf "%-4d" x) xs));
  List.iteri
    (fun r (name, _) ->
      Format.fprintf fmt "        %c = %s@."
        (Char.chr (Char.code 'A' + (r mod 26)))
        name)
    rows
