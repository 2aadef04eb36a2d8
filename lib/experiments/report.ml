let cell mean std = Printf.sprintf "%.3f ± %.3f" mean std

let table ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (List.iteri (fun i s -> widths.(i) <- Stdlib.max widths.(i) (String.length s)))
    all;
  let render row =
    String.concat "  "
      (List.mapi (fun i s -> Printf.sprintf "%-*s" widths.(i) s) row)
  in
  let sep =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" ((render header :: sep :: List.map render rows) @ [ "" ])

let csv_line fields =
  String.concat ","
    (List.map
       (fun f ->
         if String.contains f ',' || String.contains f '"' then
           "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
         else f)
       fields)

let write_csv ~path ~header ~rows =
  Cache.replace_file path (Lines.text (csv_line header :: List.map csv_line rows))
