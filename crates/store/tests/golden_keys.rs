//! Golden cache-key pins.
//!
//! The content address of a request is a contract: sweep memoization,
//! run extension, and every on-disk segment record depend on the same
//! canonical string and hash being produced forever (for a fixed
//! [`store::KERNEL_VERSION`] and [`store::CANON_VERSION`]). These tests
//! pin exact canon strings and 128-bit hashes for representative requests
//! across the Table-1 models and the acquire-fence variant. If any of them changes, either revert the
//! accidental canonicalization change, or make the change deliberate:
//! bump `KERNEL_VERSION` (kernel behaviour changed) or `CANON_VERSION`
//! (canon format changed), so old caches become unreachable, then re-pin
//! every value below from the failing assertions. Silently re-keying a
//! cache is never correct.

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
        "mmrk2|kernel=mmr-kernels-v3/survival|matrix=.X..|n=2|m=64|\
         p=3fe0000000000000|s=3fe0000000000000,3fe0000000000000,3fe0000000000000,3fe0000000000000|\
         fence=3ff0000000000000|acq=0|seed=000000000132dd0e|cw=4096"
    );
}

#[test]
fn request_canons_are_pinned() {
    let spec = tso_survival();
    assert_eq!(
        spec.request(200_000).canon(),
        format!("{}|trials=200000|rse=-", spec.family_canon())
    );
}

#[test]
fn request_hashes_are_pinned() {
    let spec = tso_survival();
    assert_eq!(
        spec.request(200_000).hash().hex(),
        "22e9fe0e6acb75a23ac9b606e2dad401"
    );
    assert_eq!(
        spec.request(200_000).family_hash().hex(),
        "a497b8adfdc20634fb5767f904a2a359"
    );
}

#[test]
fn model_and_fence_variants_hash_distinctly_and_stably() {
    // One pinned hash per Table-1 matrix plus an acquire-fence variant;
    // all five must be pairwise distinct.
    let mut variants: Vec<(String, KeySpec)> = Vec::new();
    for matrix in ["....", ".X..", "XX..", "XXXX"] {
        let mut s = tso_survival();
        s.matrix = matrix.into();
        variants.push((format!("matrix {matrix}"), s));
    }
    let mut acq = tso_survival();
    acq.acquire_fence = true;
    variants.push(("acquire fence".into(), acq));

    let hashes: Vec<String> = variants
        .iter()
        .map(|(_, s)| s.request(200_000).hash().hex())
        .collect();
    let expected = [
        "81b11a9d7f7d02d8f15109ee5a986351",
        "22e9fe0e6acb75a23ac9b606e2dad401",
        "833e3eb0ccbb5174a03bb991bb0c4d00",
        "efff3ce66fbc891009efca19891f96c3",
        "b0cc4420c36b5fad0827688cbf231040",
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
