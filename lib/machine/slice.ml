type outcome = Finished | Exhausted | Stopped

let run ?max_slices ~every ~total ~step ~boundary () =
  let every = max 1 every in
  let rec go done_ slices =
    if done_ >= total then Exhausted
    else
      match max_slices with
      | Some m when slices >= m -> Stopped
      | _ ->
          let n = min every (total - done_) in
          if step n then Finished
          else begin
            let done_ = done_ + n in
            if done_ < total then boundary done_;
            go done_ (slices + 1)
          end
  in
  go 0 0
