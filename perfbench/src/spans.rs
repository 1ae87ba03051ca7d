//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library's public functions (no instrumentation inside the library).
//! Every span belongs to one step; the step itself is a span named
//! [`STEP`], and the spans it encloses are its children. Nothing is
//! written out until the job ends.

use std::time::Instant;

/// Name of the span that encloses one whole step.
pub const STEP: &str = "step";

#[derive(Clone, Copy)]
struct Span {
    name: u16,
    step: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-rank span log.
pub struct Spans {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    step: u32,
}

/// Per-name totals over a span log.
pub struct SpanTotals {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans (only steps have
    /// children).
    pub self_ns: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(1 << 16),
            step: 0,
        }
    }

    /// Nanoseconds since the log was created.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Record a span that started at `start_ns` (from [`Spans::now`]) and
    /// ends now, inside the current step.
    #[inline]
    pub fn end(&mut self, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            step: self.step,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` as a span named `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.now();
        let r = f();
        self.end(name, t);
        r
    }

    /// Close the current step (its span started at `start_ns`) and open
    /// the next one.
    pub fn end_step(&mut self, start_ns: u64) {
        self.end(STEP, start_ns);
        self.step += 1;
    }

    /// Totals per span name, in first-recorded order.
    pub fn totals(&self) -> Vec<SpanTotals> {
        let mut out: Vec<SpanTotals> = self
            .names
            .iter()
            .map(|&name| SpanTotals {
                name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            })
            .collect();
        let step_id = self.names.iter().position(|n| *n == STEP);
        let mut child_ns = vec![0u64; self.step as usize + 1];
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            let t = &mut out[s.name as usize];
            t.count += 1;
            t.total_ns += d;
            if Some(s.name as usize) != step_id {
                t.self_ns += d;
                child_ns[s.step as usize] += d;
            }
        }
        if let Some(id) = step_id {
            for s in self.spans.iter().filter(|s| s.name as usize == id) {
                let d = s.end_ns - s.start_ns;
                out[id].self_ns += d.saturating_sub(child_ns[s.step as usize]);
            }
        }
        out
    }

    /// Raw spans of every `every`-th step as `[name, step, start_ns,
    /// end_ns]` JSON rows.
    pub fn sampled_json(&self, every: u32) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .filter(|s| s.step % every == 0)
            .map(|s| {
                format!(
                    "[\"{}\",{},{},{}]",
                    self.names[s.name as usize], s.step, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}
