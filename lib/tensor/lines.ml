(* {1 Writers} *)

let canonical_nan = Int64.float_of_bits 0x7ff8000000000001L
let canonical x = if Float.is_nan x then canonical_nan else x

let float_line a =
  String.concat " " (Array.to_list (Array.map (fun x -> Printf.sprintf "%h" (canonical x)) a))

let counted_line label a =
  if Array.length a = 0 then label ^ " 0"
  else Printf.sprintf "%s %d %s" label (Array.length a) (float_line a)

let tensor_line t =
  Printf.sprintf "%d %d %s" (Tensor.rows t) (Tensor.cols t) (float_line (Tensor.to_array t))

let rng_line rng =
  let s = Rng.state rng in
  Printf.sprintf "rng %Lx %Lx %Lx %Lx" s.(0) s.(1) s.(2) s.(3)

let text lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

(* {1 Readers} *)

let words line =
  match String.trim line with "" -> [] | s -> String.split_on_char ' ' s

let fail ~fmt msg = failwith (fmt ^ ": " ^ msg)

let field ~fmt what parse word =
  match parse word with
  | Some v -> v
  | None -> fail ~fmt (Printf.sprintf "bad %s %S" what word)

let int_field ~fmt what w = field ~fmt what int_of_string_opt w
let float_field ~fmt what w = field ~fmt what float_of_string_opt w
let bool_field ~fmt what w = field ~fmt what bool_of_string_opt w

let count_field ~fmt what w =
  field ~fmt what (fun w -> Option.bind (int_of_string_opt w) (fun n -> if n < 0 then None else Some n)) w

let floats ~fmt what ~n words =
  let got = List.length words in
  if got <> n then fail ~fmt (Printf.sprintf "%d %s words declared, %d present" n what got);
  let a = Array.make n 0.0 in
  List.iteri (fun i w -> a.(i) <- float_field ~fmt what w) words;
  a

let counted_of_line ~fmt label line =
  match words line with
  | l :: n :: values when l = label ->
      floats ~fmt (label ^ " value") ~n:(count_field ~fmt (label ^ " count") n) values
  | _ -> fail ~fmt (Printf.sprintf "bad %s line" label)

let tensor_of_line ~fmt line =
  match words line with
  | rows :: cols :: values ->
      let rows = count_field ~fmt "tensor rows" rows
      and cols = count_field ~fmt "tensor cols" cols in
      let got = List.length values in
      (* compared by division first: a huge declared shape must neither
         overflow [rows * cols] nor reach an allocation *)
      if (cols > 0 && rows > got / cols) || rows * cols <> got then
        fail ~fmt
          (Printf.sprintf "truncated tensor line (%dx%d, got %d values)" rows cols got);
      Tensor.create rows cols (floats ~fmt "tensor value" ~n:got values)
  | _ -> fail ~fmt "malformed tensor line"

let rng_of_line ~fmt line =
  match words line with
  | [ "rng"; a; b; c; d ] ->
      let word w = field ~fmt "rng word" (fun w -> Int64.of_string_opt ("0x" ^ w)) w in
      Rng.of_state (Array.map word [| a; b; c; d |])
  | _ -> fail ~fmt "bad rng line"

let rec drop k lines =
  match lines with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> lines

let take ~fmt what ~n ~width record lines =
  if n > List.length lines / width then
    fail ~fmt (Printf.sprintf "truncated %s section (%d records of %d lines declared)" what n width);
  let rec go k lines acc =
    if k = 0 then (List.rev acc, lines)
    else
      let chunk = Array.of_seq (Seq.take width (List.to_seq lines)) in
      go (k - 1) (drop width lines) (record (Array.get chunk) :: acc)
  in
  go n lines []

let read_file path = In_channel.with_open_bin path In_channel.input_lines
