(* Expected output of every corpus program, as the MD5 of everything it
   writes.  The corpus promises the same output on every machine variant,
   postpass level and engine, so one digest per program checks every run
   the benchmark makes.  Recorded from the reference engine; a change that
   alters a program's output fails the benchmark's correctness gate. *)

let outputs =
  [ ("fib", "b975491b596cbccdb596f0ae027de8e5");
    ("puzzle0", "6c65f0577ed96c176f37ec3257824133");
    ("puzzle1", "6c65f0577ed96c176f37ec3257824133");
    ("sieve", "01cef7f86aeef2d621f6108b21416f17");
    ("qsort", "951e547174945122270f7c0b4b6448da");
    ("matmul", "e5fe963aa8ae2113942d44ee87216431");
    ("hanoi", "3e0770ef5181f64dd1950f33f9d94eb9");
    ("queens", "bd3df5a972d647bfe7a986fb9deb8cd7");
    ("ackermann", "3cbc738abbe3f7a72449dc21d8369138");
    ("bubble", "1dd3e4e39a4cb251a3432ffbbc0682e6");
    ("numbers", "c7557c68edb5a14174c2eadee1a4f617");
    ("wordcount", "fe4d5fb5dbc4accfcaa40213fa927b53");
    ("strops", "8f1267bd56876ec1fa9a12df01093d2b");
    ("banner", "d5cbe382b57eb58e2b6b5e463eaadde8");
    ("greplite", "7b3ad5f761881b824dfdd0f096ed3d56");
    ("calendar", "2180f010f975e8c3792eb39a2ce3f935");
    ("sorttext", "d3528eb60e68fd7cacc0e637e7cc1a3f");
    ("symtab", "6b0314ec7a15aebb3d951d7da2077274");
    ("expreval", "fcc33d084543a774dc5adfea3e39d6d3") ]

let output_ok name output =
  match List.assoc_opt name outputs with
  | Some d -> String.equal d (Digest.to_hex (Digest.string output))
  | None -> false
