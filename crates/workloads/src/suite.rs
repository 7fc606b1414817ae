//! Suite generators: the "Small" / "Large" benchmark analogs.
//!
//! A suite is a deterministic, seeded mix of scenario modules whose
//! proportions mirror the paper's corpus: most modules are clean (plain
//! CRUD, correctly locked code, fork/join pipelines, read-only traffic),
//! a small percentage carry planted TSVs of the Table 1 flavours, and a
//! few contain the hard bugs behind the §5.3 false-negative analysis.

use crate::module::Module;
use crate::scenarios::{buggy, clean, hard, paper_examples};

/// Suite parameters.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Number of modules to generate.
    pub modules: usize,
    /// Seed controlling per-module parameters.
    pub seed: u64,
}

impl SuiteConfig {
    /// The default CI-scale analog of the paper's 1000-module Small suite.
    pub fn small() -> SuiteConfig {
        SuiteConfig {
            modules: 200,
            seed: 0x534D_414C,
        }
    }

    /// A larger analog for Table 1 statistics.
    pub fn large() -> SuiteConfig {
        SuiteConfig {
            modules: 800,
            seed: 0x4C41_5247,
        }
    }

    /// A tiny suite for fast tests.
    pub fn tiny() -> SuiteConfig {
        SuiteConfig {
            modules: 24,
            seed: 0x54494E59,
        }
    }
}

/// Builds a deterministic suite: same config → same module list.
///
/// Per 25 modules: 17 clean (paced CRUD ×8, async chatter ×3, locked,
/// ad-hoc sync, sequential phases, fork/join, read-only, staged pipeline),
/// 6 first-run-catchable planted bugs rotating over every paper example
/// and Table 1 shape, and 2 hard bugs (one rare-schedule; one single-shot
/// or slow-partner). That is an 8 / 25 = 32 % nominal bug-module rate,
/// far above the paper's 1.9 % so that CI-scale suites still carry enough
/// bugs to measure; DESIGN.md documents the substitution.
pub fn build_suite(config: SuiteConfig) -> Vec<Module> {
    let mut modules = Vec::with_capacity(config.modules);
    for i in 0..config.modules {
        let seed = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let small = 3 + (seed % 3) as u32; // 3..=5
        let medium = 6 + (seed % 5) as u32; // 6..=10
        let m = match i % 25 {
            // --- Clean majority -------------------------------------------
            0..=7 => clean::crud(16 + (seed % 16) as u32),
            8..=10 => clean::async_chatter(40 + (seed % 20) as u32, 100),
            11 => clean::locked_pair(small),
            12 => clean::adhoc_sync(small.min(3)),
            13 => clean::sequential_phases(2, small),
            14 => clean::fork_join_clean(small, medium),
            15 => clean::read_only(2, small),
            16 => clean::staged_pipeline(4, 10 + (seed % 6) as u32),
            // --- First-run-catchable planted bugs -------------------------
            17 => paper_examples::dict_racy(medium),
            18 => paper_examples::getsqrt_cache(small + 3),
            19 => {
                if seed.is_multiple_of(2) {
                    paper_examples::device_manager(medium)
                } else {
                    paper_examples::network_validation(medium)
                }
            }
            20 => match seed % 6 {
                0 => paper_examples::list_sort_race(small),
                1 => buggy::string_log(medium),
                2 => buggy::queue_drain(medium),
                3 => buggy::deque_workers(medium),
                4 => buggy::pipeline_continuations(medium),
                _ => buggy::stack_undo(medium),
            },
            21 => match seed % 6 {
                0 => buggy::same_location(3, medium),
                1 => buggy::read_write(2, medium),
                2 => buggy::lock_then_unprotected(medium),
                3 => buggy::set_membership(medium),
                4 => buggy::bitmap_flags(medium),
                _ => buggy::sorted_index(medium),
            },
            22 => buggy::hot_loop(300 + (seed % 200) as u32, small),
            // --- Hard bugs -------------------------------------------------
            23 => hard::rare_pair(seed, 8, small.min(3)),
            _ => {
                if seed.is_multiple_of(3) {
                    hard::slow_partner(12)
                } else {
                    hard::single_shot()
                }
            }
        };
        modules.push(rename(m, i));
    }
    modules
}

/// Prefixes the module name with its suite index so every module is
/// uniquely addressable in reports.
fn rename(m: Module, index: usize) -> Module {
    let name = format!("m{index:04}:{}", m.name());
    m.with_name(name)
}

impl Module {
    /// The scenario family a suite module was dealt from: its name without
    /// the `m{index}:` prefix [`build_suite`] gives it (the whole name for a
    /// module no suite renamed).
    pub fn family(&self) -> &str {
        self.name()
            .split_once(':')
            .map_or(self.name(), |(_, family)| family)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Expectation;

    #[test]
    fn suite_is_deterministic() {
        let a = build_suite(SuiteConfig::tiny());
        let b = build_suite(SuiteConfig::tiny());
        let names = |s: &[Module]| s.iter().map(|m| m.name().to_owned()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.len(), 24);
    }

    #[test]
    fn suite_mix_has_expected_proportions() {
        let suite = build_suite(SuiteConfig {
            modules: 100,
            seed: 1,
        });
        let buggy = suite
            .iter()
            .filter(|m| m.expectation() != Expectation::Clean)
            .count();
        let clean = suite.len() - buggy;
        assert_eq!(buggy, 32, "8 of every 25 modules carry a planted bug");
        assert_eq!(clean, 68);
    }

    #[test]
    fn a_family_is_the_name_without_the_suite_prefix() {
        let suite = build_suite(SuiteConfig::tiny());
        assert_eq!(suite[17].name(), "m0017:dict-racy");
        assert_eq!(suite[17].family(), "dict-racy");
        let plain = crate::scenarios::paper_examples::dict_racy(3);
        assert_eq!(plain.family(), "dict-racy");
    }

    #[test]
    fn module_names_are_unique() {
        let suite = build_suite(SuiteConfig::small());
        let mut names: Vec<&str> = suite.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn hard_bugs_are_marked_not_first_run_catchable() {
        let suite = build_suite(SuiteConfig {
            modules: 50,
            seed: 2,
        });
        let hard: Vec<_> = suite
            .iter()
            .filter(|m| {
                matches!(
                    m.expectation(),
                    Expectation::Buggy {
                        first_run_catchable: false,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(hard.len(), 4, "two hard bugs per 25 modules");
    }
}
