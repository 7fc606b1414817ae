//! The do-nothing strategy: instrumented but passive.
//!
//! Used to measure pure instrumentation overhead (the baseline in the
//! paper's overhead numbers is an *uninstrumented* run; `Noop` additionally
//! lets the harness separate wrapper cost from delay cost).

use crate::access::Access;
use crate::strategy::Strategy;

/// A strategy that never injects delays.
#[derive(Debug, Default)]
pub struct Noop;

impl Strategy for Noop {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn on_access(&self, _access: &Access, _concurrent: bool) -> Option<u64> {
        None
    }

    fn on_delay_complete(&self, _access: &Access, _start_ns: u64, _end_ns: u64, _caught: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ObjId, OpKind};
    use crate::context::ContextId;

    #[test]
    fn never_delays() {
        let s = Noop;
        let access = Access {
            context: ContextId(1),
            obj: ObjId(1),
            site: crate::site!(),
            op_name: "t.op",
            kind: OpKind::Write,
            time_ns: 0,
        };
        for _ in 0..100 {
            assert_eq!(s.on_access(&access, true), None);
        }
    }
}
