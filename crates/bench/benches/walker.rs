//! Micro-benchmarks of the two-dimensional page-table walker: cold versus
//! walk-cache-warmed translations.
//!
//! Plain `std::time::Instant` harness (`harness = false`); run with
//! `cargo bench --bench walker`.

use hypersio_mem::{TenantSpace, TwoDimWalker, WalkCacheConfig, WalkCaches};
use hypersio_types::{Did, GIova, PageSize, Sid};
use std::hint::black_box;

fn paper_space() -> TenantSpace {
    let mut b = TenantSpace::builder(Did::new(0));
    b.map(GIova::new(0x3480_0000), PageSize::Size4K);
    for i in 0..32u64 {
        b.map(GIova::new(0xbbe0_0000 + i * 0x20_0000), PageSize::Size2M);
    }
    b.build()
}

fn bench_cold_walks() {
    let space = paper_space();
    bench::time_case("walker_cold_2d_walk", 200, || {
        // Fresh caches every iteration: all walks are full 19/24-access
        // nested walks.
        let mut caches = WalkCaches::new(&WalkCacheConfig::paper_base());
        for i in 0..32u64 {
            let iova = GIova::new(0xbbe0_0000 + i * 0x20_0000);
            let out = TwoDimWalker::walk(
                space.view(Did::new(0), 0),
                Sid::new(0),
                iova,
                &mut caches,
                i,
            )
            .unwrap();
            black_box(out.dram_accesses);
        }
    });
}

fn bench_warm_walks() {
    let space = paper_space();
    let mut caches = WalkCaches::new(&WalkCacheConfig::paper_base());
    // Warm every page once.
    for i in 0..32u64 {
        let iova = GIova::new(0xbbe0_0000 + i * 0x20_0000);
        TwoDimWalker::walk(
            space.view(Did::new(0), 0),
            Sid::new(0),
            iova,
            &mut caches,
            i,
        )
        .unwrap();
    }
    let mut now = 100u64;
    bench::time_case("walker_warm_l2_hit", 200, || {
        for i in 0..32u64 {
            let iova = GIova::new(0xbbe0_0000 + i * 0x20_0000 + 0x1234);
            let out = TwoDimWalker::walk(
                space.view(Did::new(0), 0),
                Sid::new(0),
                iova,
                &mut caches,
                now,
            )
            .unwrap();
            now += 1;
            black_box(out.dram_accesses);
        }
    });
}

fn main() {
    bench_cold_walks();
    bench_warm_walks();
}
