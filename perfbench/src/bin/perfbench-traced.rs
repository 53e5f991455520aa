//! Traced benchmark binary (`--trace 1`): the counting allocator is
//! installed here only, so untraced timings never pay for it.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
