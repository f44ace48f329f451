type criterion = Osdm | Osm | Tsm

let name = function Osdm -> "osdm" | Osm -> "osm" | Tsm -> "tsm"

let of_name = function
  | "osdm" -> Some Osdm
  | "osm" -> Some Osm
  | "tsm" -> Some Tsm
  | _ -> None

let all = [ Osdm; Osm; Tsm ]

let matches man crit (s1 : Ispec.t) (s2 : Ispec.t) =
  match crit with
  | Osdm -> Bdd.is_zero s1.c
  | Osm -> Bdd.leq man s1.c s2.c && Bdd.agree man s1.c s1.f s2.f
  | Tsm -> Bdd.agree2 man s1.c s2.c s1.f s2.f

let i_cover man crit (s1 : Ispec.t) (s2 : Ispec.t) =
  if not (matches man crit s1 s2) then None
  else
    match crit with
    | Osdm | Osm -> Some s2
    | Tsm ->
      Some
        (Ispec.make
           ~f:(Bdd.dor man (Bdd.dand man s1.f s1.c) (Bdd.dand man s2.f s2.c))
           ~c:(Bdd.dor man s1.c s2.c))

let match_either man crit s1 s2 =
  match i_cover man crit s1 s2 with
  | Some _ as r -> r
  | None -> ( match crit with Tsm -> None | Osdm | Osm -> i_cover man crit s2 s1)

let implies a b =
  match (a, b) with
  | (Osdm, (Osdm | Osm | Tsm)) | (Osm, (Osm | Tsm)) | (Tsm, Tsm) -> true
  | (Osm, Osdm) | (Tsm, (Osdm | Osm)) -> false

(* Table 1. *)
let reflexive = function Osdm -> false | Osm -> true | Tsm -> true
let symmetric = function Osdm -> false | Osm -> false | Tsm -> true
let transitive = function Osdm -> true | Osm -> true | Tsm -> false
