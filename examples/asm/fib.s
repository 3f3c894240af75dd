; fib.s — recursive Fibonacci, a call/ret-heavy guest program.
;
;   ./build/tools/cfed-run --tech=rcf --stats examples/asm/fib.s
;   ./build/tools/cfed-run --tech=rcf --campaign=50 examples/asm/fib.s
;
; Prints fib(0)..fib(15).

.entry main

; fib(r1) -> r1, recursive.
fib:
  cmpi r1, 2
  jcc lt, base          ; fib(0)=0, fib(1)=1
  push r1
  addi r1, r1, -1
  call fib              ; fib(n-1)
  pop r2                ; n
  push r1               ; save fib(n-1)
  lea r1, r2, -2
  call fib              ; fib(n-2)
  pop r2
  add r1, r1, r2
  ret
base:
  ret

main:
  movi r10, 0
loop:
  mov r1, r10
  call fib
  out r1
  addi r10, r10, 1
  cmpi r10, 16
  jcc lt, loop
  halt
