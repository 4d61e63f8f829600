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
    assert_eq!(KERNEL_VERSION, "mmr-kernels-v2");
}

#[test]
fn family_canon_is_pinned() {
    assert_eq!(
        tso_survival().family_canon(),
        "mmrk1|kernel=mmr-kernels-v2/survival|matrix=.X..|n=2|m=64|\
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
        "dddfb5b6f96869820473b490d65b7777"
    );
    assert_eq!(
        spec.request(200_000, Some(0.01)).hash().hex(),
        "90b067e9eb286c4733dd9a8200aaa7a2"
    );
    assert_eq!(
        spec.request(200_000, None).family_hash().hex(),
        "cf7f1832b73973142f3673eb8d85788b"
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
        "5dc9d1a9490c3a748b12398f10fb03c6",
        "dddfb5b6f96869820473b490d65b7777",
        "b4d22c15741b3d887bbd4f605e8f893f",
        "b22895d8ec42d42cdd28b3ed0aca8fae",
        "291be956ab082f91779da5211ce98032",
        "2eaf28f8f600ad49241516f1cd92e60e",
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
