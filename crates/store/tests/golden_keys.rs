//! Golden cache-key pins.
//!
//! The content address of a request is a contract: sweep memoization,
//! run extension, and every on-disk segment record depend on the same
//! canonical string and hash being produced forever (for a fixed
//! [`store::KERNEL_VERSION`]). These tests pin exact canon strings and
//! 128-bit hashes for representative requests across the Table-1 models,
//! the lane path, and the stopping-target variants. If any of them
//! changes, either bump `KERNEL_VERSION` (kernel behaviour changed — old
//! caches *should* become unreachable) or revert the accidental
//! canonicalization change; silently re-keying a cache is never correct.

use store::{KeyHash, KeySpec, KERNEL_VERSION};

/// The reference spec: TSO survival kernel at the paper's standard
/// parameters and the repo's standard seed.
fn tso_survival() -> KeySpec {
    KeySpec {
        kernel: format!("{KERNEL_VERSION}/survival"),
        matrix: ".X..".into(),
        threads_n: 2,
        filler_m: 64,
        p_bits: 0.5f64.to_bits(),
        settle_bits: [0.5f64.to_bits(); 4],
        fence_pass_bits: 1.0f64.to_bits(),
        acquire_fence: false,
        seed: 20_110_606,
        chunk_width: 4096,
        lanes: 0,
    }
}

#[test]
fn kernel_version_is_pinned() {
    // Bumping this invalidates every existing cache — deliberate, but it
    // must never happen by accident. v2: settling moved to
    // attempt-addressed draws, which changed every seeded settle stream.
    // v3: programs moved to one key with addressed filler types, which
    // changed every seeded program stream.
    assert_eq!(KERNEL_VERSION, "mmr-kernels-v3");
}

#[test]
fn family_canon_is_pinned() {
    assert_eq!(
        tso_survival().family_canon(),
        "mmrk1|kernel=mmr-kernels-v3/survival|matrix=.X..|n=2|m=64|\
         p=3fe0000000000000|s=3fe0000000000000,3fe0000000000000,3fe0000000000000,3fe0000000000000|\
         fence=3ff0000000000000|acq=0|seed=000000000132dd0e|cw=4096|lanes=0"
    );
}

#[test]
fn request_canons_are_pinned() {
    let spec = tso_survival();
    assert_eq!(
        spec.request(200_000, None).canon(),
        format!("{}|trials=200000|rse=-", spec.family_canon())
    );
    assert_eq!(
        spec.request(200_000, Some(0.01)).canon(),
        format!("{}|trials=200000|rse=3f847ae147ae147b", spec.family_canon())
    );
}

#[test]
fn request_hashes_are_pinned() {
    let spec = tso_survival();
    assert_eq!(
        spec.request(200_000, None).hash().hex(),
        "1839f6b838fadb39a4ef87ae48d74a47"
    );
    assert_eq!(
        spec.request(200_000, Some(0.01)).hash().hex(),
        "2af92d81997e1d4e2e1ac25d24d2c019"
    );
    assert_eq!(
        spec.request(200_000, None).family_hash().hex(),
        "067b7ba7a5cc9ad37f413daf9612c90d"
    );
}

#[test]
fn model_and_path_variants_hash_distinctly_and_stably() {
    // One pinned hash per Table-1 matrix plus the lane path and an
    // acquire-fence variant; all ten must be pairwise distinct.
    let mut variants: Vec<(String, KeySpec)> = Vec::new();
    for matrix in ["....", ".X..", "XX..", "XXXX"] {
        let mut s = tso_survival();
        s.matrix = matrix.into();
        variants.push((format!("matrix {matrix}"), s));
    }
    let mut lanes = tso_survival();
    lanes.kernel = format!("{KERNEL_VERSION}/survival_lanes");
    lanes.lanes = 1;
    variants.push(("lane path".into(), lanes));
    let mut acq = tso_survival();
    acq.acquire_fence = true;
    variants.push(("acquire fence".into(), acq));

    let hashes: Vec<String> = variants
        .iter()
        .map(|(_, s)| s.request(200_000, None).hash().hex())
        .collect();
    let expected = [
        "bd21c31c0ff018278b1b6c595ce42f49",
        "1839f6b838fadb39a4ef87ae48d74a47",
        "11364e1d9ef5a6175992b80f556f63e2",
        "32b8b3ebbc3263a706dc7d5f96927901",
        "f1293c9a58b26906f9fd52c87494eda3",
        "282e4cb21b0ee132fac2a210f50ee8d3",
    ];
    for (i, ((label, _), hash)) in variants.iter().zip(&hashes).enumerate() {
        assert_eq!(hash, expected[i], "golden hash moved for {label}");
    }
    for i in 0..hashes.len() {
        for j in (i + 1)..hashes.len() {
            assert_ne!(hashes[i], hashes[j], "collision between variants");
        }
    }
}

#[test]
fn hash_primitives_are_pinned() {
    // The two mixers under every key, pinned independently so a failure
    // above can be localized.
    assert_eq!(store::fnv1a64(b"mmrk1"), 0x78fd_6286_9857_416f);
    assert_eq!(store::splitmix64(0), 0xe220_a839_7b1d_cdaf);
    assert_eq!(KeyHash::of("mmrk1").hex().len(), 32);
}
