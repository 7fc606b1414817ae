//! One module per paper table/figure. Each exposes
//! `run(&ExpOpts) -> Vec<Table>`; the `repro` binary prints every table and
//! saves it as CSV under `target/experiments/`.

pub mod coverage;
pub mod fig8;
pub mod fig9;
pub mod fneg;
pub mod resources;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod validate;

use tsvd_core::TsvdConfig;

use crate::runner::RunOptions;

/// Shared experiment options (overridable from the `repro` CLI).
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Modules in the generated suite (experiments scale this down or up).
    pub modules: usize,
    /// Test runs with trap-file carry-over.
    pub runs: usize,
    /// Suite seed.
    pub seed: u64,
    /// Time-scale factor applied to the paper's 100 ms constants.
    pub scale: f64,
    /// Pool workers per module.
    pub threads: usize,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            modules: 200,
            runs: 2,
            seed: 0x534D_414C,
            scale: 0.02,
            threads: 2,
        }
    }
}

impl ExpOpts {
    /// The scaled detector configuration.
    pub fn config(&self) -> TsvdConfig {
        TsvdConfig::paper().scaled(self.scale)
    }

    /// Runner options derived from these experiment options.
    pub fn run_options(&self) -> RunOptions {
        RunOptions {
            config: self.config(),
            threads: self.threads,
            runs: self.runs,
            module_deadline: std::time::Duration::from_secs(30),
            static_priors: None,
        }
    }

    /// A copy with a different module count.
    pub fn with_modules(&self, modules: usize) -> ExpOpts {
        ExpOpts {
            modules,
            ..self.clone()
        }
    }
}
