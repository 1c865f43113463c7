/// Scaling knobs common to all workload generators.
///
/// `units` is each application's natural work measure (wires routed, tasks
/// executed, timesteps simulated); doubling it roughly doubles the trace.
///
/// # Example
///
/// ```
/// use lrc_workloads::Scale;
///
/// let paper = Scale::paper();
/// assert_eq!(paper.procs, 16);
/// let tiny = Scale { seed: 7, ..Scale::small(4) };
/// assert_eq!((tiny.procs, tiny.seed), (4, 7));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale {
    /// Number of processors (the paper's traces use 16).
    pub procs: usize,
    /// Work units (wires / tasks / timesteps, per application).
    pub units: usize,
    /// PRNG seed; identical scales generate identical traces.
    pub seed: u64,
}

impl Scale {
    /// The evaluation configuration: 16 processors, enough work for the
    /// figure shapes to be stable.
    pub fn paper() -> Self {
        Scale {
            procs: 16,
            units: 400,
            seed: 1992,
        }
    }

    /// A small configuration for tests: quick to generate and replay with
    /// the sequential-consistency oracle on.
    pub fn small(procs: usize) -> Self {
        Scale {
            procs,
            units: 40,
            seed: 1992,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_scale() {
        assert_eq!(Scale::default(), Scale::paper());
    }
}
