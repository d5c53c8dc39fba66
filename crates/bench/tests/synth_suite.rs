//! Suite regression of the synthesis engine: on every benchmark of the
//! full Table 3 suite, the `resyn2rs` output is CEC-verified against
//! the source circuit and is never worse in `(ands, depth)` than the
//! seed-era rebuild engine reached ([`SEED_RESYN2RS`]).

use cntfet_aig::{check_equivalence_sweeping, CecResult};
use cntfet_bench::SEED_RESYN2RS;
use cntfet_circuits::paper_benchmarks;
use cntfet_synth::{resyn2rs, AigStats};

#[test]
fn inplace_resyn2rs_never_worse_than_seed_on_full_suite() {
    let benches = paper_benchmarks();
    assert_eq!(benches.len(), SEED_RESYN2RS.len(), "full suite expected");
    let outcomes = threadpool::par_map(0, benches.len(), |i| {
        let b = &benches[i];
        let opt = resyn2rs(&b.aig);
        (AigStats::of(&opt), check_equivalence_sweeping(&b.aig, &opt))
    });
    for ((b, &(name, seed)), (stats, cec)) in benches.iter().zip(&SEED_RESYN2RS).zip(outcomes) {
        assert_eq!(b.name, name, "pinned table out of suite order");
        assert_eq!(cec, CecResult::Equivalent, "{name}: resyn2rs output failed CEC");
        assert!(!seed.better_than(&stats), "{name}: resyn2rs {stats:?} worse than seed {seed:?}");
    }
}
