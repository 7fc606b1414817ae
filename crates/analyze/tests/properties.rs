//! Seeded property tests for the analyzer's front end.
//!
//! Every input is a pure function of its seed ([`SplitMix64`]); a failure
//! names the seed.

use tsvd_analyze::analyze_file;
use tsvd_core::rng::SplitMix64;

/// The analyzer's trigger words, unbalanced delimiters and half-open
/// comments and raw strings, separated by spaces.
const WORDS: &str =
    r##"let fn spawn clone Dictionary Arc Mutex lock { } ( ) . = ; r#" "# /* */ x ""##;

/// Rust-ish soup of up to 119 trigger words lexes and analyzes without
/// panicking — the full front end, not just the lexer.
#[test]
fn analyze_never_panics_on_keyword_soup() {
    let words: Vec<&str> = WORDS.split(' ').collect();
    for seed in 0..256 {
        let mut rng = SplitMix64::new(seed);
        let soup: Vec<&str> = (0..rng.below(120))
            .map(|_| words[rng.below(words.len() as u64) as usize])
            .collect();
        let src = soup.join(" ");
        let outcome = std::panic::catch_unwind(|| analyze_file("fuzz.rs", &src));
        assert!(outcome.is_ok(), "seed {seed}: panicked on {src:?}");
    }
}
