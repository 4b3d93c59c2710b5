//! Per-span allocation attribution under a counting global allocator.
//!
//! This is the enabled-path counterpart of `no_alloc.rs`: the same
//! allocator `exp_profile` uses, but with [`set_prof_alloc`] on, so span
//! records must carry allocation deltas and the profile must attribute a
//! child's allocations to the child, not the parent.

use easytime_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// One test function only: the recorder and the profiling gate are
// process-global.
#[test]
fn allocations_are_attributed_to_the_innermost_open_span() {
    easytime_obs::set_enabled(true);
    easytime_obs::reset();
    // Warm the lazy paths (sink registration, duration-histogram entries)
    // before turning the tally on, so deltas below are purely workload.
    {
        let _w = easytime_obs::span("outer");
        let _i = easytime_obs::span("inner");
    }
    let _ = easytime_obs::drain();
    easytime_obs::set_prof_alloc(true);
    assert!(easytime_obs::prof_alloc_enabled());

    {
        let _outer = easytime_obs::span("outer");
        let own: Vec<u64> = Vec::with_capacity(8); // one alloc in outer itself
        {
            let _inner = easytime_obs::span("inner");
            let a: Vec<u64> = Vec::with_capacity(32);
            let b: Vec<u64> = Vec::with_capacity(64);
            drop((a, b)); // two allocs inside inner
        }
        drop(own);
    }
    easytime_obs::set_prof_alloc(false);

    let data = easytime_obs::drain();
    let by_name = |n: &str| data.spans.iter().find(|s| s.name == n).expect("span recorded");
    let outer = by_name("outer");
    let inner = by_name("inner");

    // inner saw exactly its own two Vec allocations.
    assert_eq!(inner.allocs, 2, "inner allocs: {:?}", inner);
    assert_eq!(inner.alloc_bytes, 32 * 8 + 64 * 8);
    // outer's recorded delta is inclusive: its own Vec plus inner's two.
    assert!(outer.allocs >= 3, "outer inclusive allocs: {:?}", outer);

    // The profile subtracts children: outer's *self* allocs exclude
    // inner's.
    let profile = easytime_obs::Profile::from_trace(&data);
    assert_eq!(profile.stages["inner"].allocs, 2);
    assert_eq!(profile.stages["outer"].allocs, outer.allocs - inner.allocs);

    // The rendered trace line carries the alloc fields.
    let trace = easytime_obs::render_trace_jsonl(&data);
    assert!(trace.contains("\"name\":\"inner\""));
    assert!(trace.contains(&format!("\"allocs\":{},\"alloc_bytes\":{}", inner.allocs, inner.alloc_bytes)));

    easytime_obs::set_enabled(false);
    easytime_obs::reset();
}
