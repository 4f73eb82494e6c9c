type id = int
type t = { id : id; name : string; weight : float }

let make ~id ~name ~weight =
  if weight < 0. then invalid_arg "Task.make: negative weight";
  { id; name; weight }
