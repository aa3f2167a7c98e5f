//! Golden partition digests for the METIS-family partitioners.
//!
//! Every RB, KWAY and TV assignment over a small grid of cubed-sphere
//! resolutions, processor counts and seeds is hashed (FNV-1a over the
//! little-endian part ids) and pinned together with its edgecut. The
//! multilevel kernel is deterministic for a fixed seed, so any change to
//! coarsening, initial partitioning, FM or k-way refinement that moves a
//! single element to another part fails here, loudly and with the full
//! table of new values. A kernel change that is meant to be bit-identical
//! must pass this test unchanged; one that is meant to change partitions
//! must say so and re-pin every line it moves.

use cubesfc::graph::metrics::edgecut;
use cubesfc::{partition, to_csr, CubedSphere, PartitionMethod, PartitionOptions};

/// FNV-1a (64-bit) over the assignment's part ids, little-endian u32.
fn fnv1a(assign: &[u32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &p in assign {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `(ne, nproc, seed, method, digest, edgecut)`.
type Golden = (usize, usize, u64, &'static str, u64, u64);

const SEEDS: [u64; 2] = [0x5EED, 7];

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    (8, 2, 0x5eed, "KWAY", 0xae41f1c08db92ab5, 111),
    (8, 2, 0x5eed, "TV", 0xae41f1c08db92ab5, 111),
    (8, 2, 0x5eed, "RB", 0xa824a48e27adcf55, 111),
    (8, 2, 0x7, "KWAY", 0x201eee8000b8ac35, 104),
    (8, 2, 0x7, "TV", 0x201eee8000b8ac35, 104),
    (8, 2, 0x7, "RB", 0x00c33bd330253c05, 106),
    (8, 24, 0x5eed, "KWAY", 0x1e93a63a9e1f90a1, 529),
    (8, 24, 0x5eed, "TV", 0x59804c95c722fcd1, 532),
    (8, 24, 0x5eed, "RB", 0x79c13e9e152fb84f, 539),
    (8, 24, 0x7, "KWAY", 0x8ce6ca00a8003353, 521),
    (8, 24, 0x7, "TV", 0x578448cf6d44a60e, 523),
    (8, 24, 0x7, "RB", 0x44b0633c89b9084b, 530),
    (8, 96, 0x5eed, "KWAY", 0x9dafa324030e7ce9, 949),
    (8, 96, 0x5eed, "TV", 0x9385f32a544a58d4, 957),
    (8, 96, 0x5eed, "RB", 0x60c38d4840cd2a1a, 1003),
    (8, 96, 0x7, "KWAY", 0xf540df7993592342, 941),
    (8, 96, 0x7, "TV", 0x9f305ded46c04df6, 950),
    (8, 96, 0x7, "RB", 0xb506684b1bd76a80, 1011),
    (8, 384, 0x5eed, "KWAY", 0xd0b9ed86c4043f73, 1338),
    (8, 384, 0x5eed, "TV", 0x30f920459f4e0c2e, 1338),
    (8, 384, 0x5eed, "RB", 0xd5c01e4e77b1b4d0, 1344),
    (8, 384, 0x7, "KWAY", 0xe71f3b4117b690c5, 1340),
    (8, 384, 0x7, "TV", 0xe71f3b4117b690c5, 1340),
    (8, 384, 0x7, "RB", 0x44606eed193c0a0d, 1343),
    (16, 2, 0x5eed, "KWAY", 0x68b00f8f89c06d05, 227),
    (16, 2, 0x5eed, "TV", 0x68b00f8f89c06d05, 227),
    (16, 2, 0x5eed, "RB", 0x79dfa78e5bdb5945, 206),
    (16, 2, 0x7, "KWAY", 0x98c73ab17da2f845, 233),
    (16, 2, 0x7, "TV", 0xc68f2b82d6b3e755, 233),
    (16, 2, 0x7, "RB", 0x3640493e06f37705, 206),
    (16, 24, 0x5eed, "KWAY", 0x11d2330d57e9f81a, 1112),
    (16, 24, 0x5eed, "TV", 0x9337ed28f4c93cf0, 1108),
    (16, 24, 0x5eed, "RB", 0xa8fd7f58630ddd24, 1125),
    (16, 24, 0x7, "KWAY", 0xc71465e5465fbfe8, 1097),
    (16, 24, 0x7, "TV", 0x4f716a392beeea86, 1104),
    (16, 24, 0x7, "RB", 0x0df7bef4ab4762c7, 1135),
    (16, 96, 0x5eed, "KWAY", 0xccc938521a8c9602, 2190),
    (16, 96, 0x5eed, "TV", 0x02b35032270d134a, 2220),
    (16, 96, 0x5eed, "RB", 0xbaa861080c0a69c8, 2196),
    (16, 96, 0x7, "KWAY", 0x49d9ed0607d23d8c, 2171),
    (16, 96, 0x7, "TV", 0x7dc5a8a0e802febf, 2187),
    (16, 96, 0x7, "RB", 0xdea240e0a08684ab, 2204),
    (16, 384, 0x5eed, "KWAY", 0x8eec1c6f26332f5b, 3828),
    (16, 384, 0x5eed, "TV", 0x803611cf9cd5f3dc, 3860),
    (16, 384, 0x5eed, "RB", 0x81f8eda38bf1a7c7, 4051),
    (16, 384, 0x7, "KWAY", 0xb515a4d09ff8accd, 3822),
    (16, 384, 0x7, "TV", 0xa54ae49afadfbfb9, 3854),
    (16, 384, 0x7, "RB", 0xe6e719f31d2ed120, 4068),
    (16, 768, 0x5eed, "KWAY", 0x500923823647da36, 4708),
    (16, 768, 0x5eed, "TV", 0xc70ec10a2ebd341c, 4750),
    (16, 768, 0x5eed, "RB", 0xf0f9dccbef2db27c, 5007),
    (16, 768, 0x7, "KWAY", 0x621756ea0d0a67de, 4708),
    (16, 768, 0x7, "TV", 0x64c83a36cca7cdbc, 4743),
    (16, 768, 0x7, "RB", 0x853d07eccc092252, 4995),
];

fn nprocs(ne: usize) -> &'static [usize] {
    if ne == 16 {
        &[2, 24, 96, 384, 768]
    } else {
        &[2, 24, 96, 384]
    }
}

#[test]
fn metis_family_partitions_match_their_golden_digests() {
    let mut actual: Vec<Golden> = Vec::new();
    for ne in [8usize, 16] {
        let mesh = CubedSphere::new(ne);
        let mut opts = PartitionOptions::default();
        let g = to_csr(&mesh.dual_graph(opts.exchange));
        for &nproc in nprocs(ne) {
            for seed in SEEDS {
                opts.graph_config.seed = seed;
                for method in PartitionMethod::METIS {
                    let p = partition(&mesh, method, nproc, &opts).unwrap();
                    actual.push((
                        ne,
                        nproc,
                        seed,
                        method.label(),
                        fnv1a(p.assignment()),
                        edgecut(&g, &p),
                    ));
                }
            }
        }
    }
    if actual != GOLDEN {
        let table: Vec<String> = actual
            .iter()
            .map(|(ne, nproc, seed, m, d, cut)| {
                format!("    ({ne}, {nproc}, {seed:#x}, {m:?}, {d:#018x}, {cut}),")
            })
            .collect();
        let moved = actual.iter().zip(GOLDEN).filter(|(a, g)| a != g).count()
            + actual.len().abs_diff(GOLDEN.len());
        panic!(
            "{moved} of {} partitions moved; the current table is:\n{}",
            actual.len(),
            table.join("\n")
        );
    }
}
