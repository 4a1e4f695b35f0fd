type t = Abort | Quarantine

let name = function
  | Abort -> "abort"
  | Quarantine -> "quarantine"
