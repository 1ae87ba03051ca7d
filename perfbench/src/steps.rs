//! One step of each workload: a single call of the app's `run()` (the
//! untraced, end-to-end step), and a replica of that call built from the
//! same public library calls with a span around each (the traced step).
//!
//! The replicas follow `rupcxx_apps::{gups, stencil}::run` call for call,
//! so the traced step does the same work as the untraced one; only the
//! clock reads differ. Their checksums pass the same correctness gates.

use crate::spans::Spans;
use crate::{Workload, GUPS_TABLE, GUPS_UPDATES, STENCIL_C, STENCIL_EDGE, STENCIL_GRID};
use crate::{STENCIL_ITERS, XOR_CHUNK};
use rupcxx::prelude::*;
use rupcxx::UpcDirectTable;
use rupcxx_apps::{gups, stencil};
use rupcxx_ndarray::{pt, LocalGrid, NdArray, Point, RectDomain};
use rupcxx_util::{GupsRng, Timer};

/// What one step reports: the app's own timed seconds and its checksum
/// (GUPS: the u64 table sum; stencil: the f64 interior sum, as bits).
pub struct StepOut {
    pub app_seconds: f64,
    pub checksum: u64,
}

pub fn gups_config(w: Workload) -> gups::GupsConfig {
    gups::GupsConfig {
        table_size: GUPS_TABLE,
        updates_per_rank: GUPS_UPDATES,
        variant: match w {
            Workload::Gups => gups::Variant::Upcxx,
            _ => gups::Variant::UpcxxAgg,
        },
        // The benchmark's checksum gate replaces the app's inverse pass.
        verify: false,
    }
}

pub fn stencil_config() -> stencil::StencilConfig {
    stencil::StencilConfig {
        local_edge: STENCIL_EDGE,
        grid: STENCIL_GRID,
        iters: STENCIL_ITERS,
        variant: stencil::Variant::Optimized,
        c: STENCIL_C,
    }
}

/// The untraced step: one call of the app's `run()`.
pub fn app_step(ctx: &Ctx, w: Workload) -> StepOut {
    match w {
        Workload::Stencil => {
            let r = stencil::run(ctx, &stencil_config());
            StepOut {
                app_seconds: r.seconds,
                checksum: r.checksum.to_bits(),
            }
        }
        _ => {
            let r = gups::run(ctx, &gups_config(w));
            StepOut {
                app_seconds: r.seconds,
                checksum: r.checksum,
            }
        }
    }
}

/// The traced step: the replica of [`app_step`] with spans.
pub fn traced_step(ctx: &Ctx, w: Workload, sp: &mut Spans) -> StepOut {
    match w {
        Workload::Stencil => stencil_traced(ctx, sp),
        _ => gups_traced(ctx, w, sp),
    }
}

/// `gups::run` with `verify: false`, spanned.
fn gups_traced(ctx: &Ctx, w: Workload, sp: &mut Spans) -> StepOut {
    let agg = w != Workload::Gups;
    let table = sp.time("core.shared_array_new", || {
        SharedArray::<u64>::new(ctx, GUPS_TABLE, 1)
    });
    let direct = sp.time("apps.gups.init", || {
        for (slot, i) in table
            .local_slice_mut(ctx)
            .iter_mut()
            .zip(table.my_indices(ctx))
        {
            *slot = i as u64;
        }
        UpcDirectTable::new(ctx, &table)
    });
    sp.time("runtime.barrier", || ctx.barrier());

    let t = Timer::start();
    let mask = GUPS_TABLE - 1;
    let mut rng = GupsRng::starting_at((ctx.rank() * GUPS_UPDATES) as i64);
    let name = if agg { "core.xor_agg" } else { "core.xor" };
    let mut done = 0;
    while done < GUPS_UPDATES {
        let n = XOR_CHUNK.min(GUPS_UPDATES - done);
        let s = sp.now();
        for _ in 0..n {
            let ran = rng.next_u64();
            if agg {
                table.xor_agg(ctx, ran as usize & mask, ran);
            } else {
                table.xor(ctx, ran as usize & mask, ran);
            }
        }
        sp.end(name, s);
        done += n;
    }
    if agg {
        sp.time("net.agg.fence", || ctx.agg_fence());
    }
    sp.time("runtime.barrier", || ctx.barrier());
    let seconds = t.seconds();
    sp.time("runtime.allreduce", || ctx.allreduce(seconds, f64::max));

    let local_sum = sp.time("apps.gups.checksum", || {
        table
            .local_slice(ctx)
            .iter()
            .fold(0u64, |a, &v| a.wrapping_add(v))
    });
    let checksum = sp.time("runtime.allreduce", || {
        ctx.allreduce(local_sum, u64::wrapping_add)
    });
    drop(direct);
    sp.time("core.shared_array_destroy", || table.destroy(ctx));
    StepOut {
        app_seconds: seconds,
        checksum,
    }
}

/// The stencil app's initial condition (private in the app; repeated
/// here so the replica computes the identical field).
fn init_value(p: Point<3>) -> f64 {
    let (x, y, z) = (p[0] as f64, p[1] as f64, p[2] as f64);
    (x * 0.37).sin() + (y * 0.23).cos() + (z * 0.11).sin() * 0.5
}

/// `stencil::run` with the `Optimized` variant, spanned.
fn stencil_traced(ctx: &Ctx, sp: &mut Spans) -> StepOut {
    let (px, py, pz) = STENCIL_GRID;
    let e = STENCIL_EDGE as i64;
    let r = ctx.rank();
    let (cx, cy, cz) = (r % px, (r / px) % py, r / (px * py));
    let lo = pt![cx as i64 * e, cy as i64 * e, cz as i64 * e];
    let interior = RectDomain::new(lo, lo + pt![e, e, e]);
    let with_ghosts = RectDomain::new(lo - pt![1, 1, 1], lo + pt![e + 1, e + 1, e + 1]);

    let (a, b) = sp.time("ndarray.alloc", || {
        let a = NdArray::<f64, 3>::new(ctx, with_ghosts);
        let b = NdArray::<f64, 3>::new(ctx, with_ghosts);
        a.fill(ctx, 0.0);
        b.fill(ctx, 0.0);
        a.restrict(interior).fill_with(ctx, init_value);
        (a, b)
    });
    let (dir_a, dir_b) = sp.time("runtime.allgatherv", || {
        (ctx.allgatherv(&[a]), ctx.allgatherv(&[b]))
    });
    let neighbors: Vec<(usize, i8, Option<usize>)> = (0..3usize)
        .flat_map(|dim| [(dim, -1i8), (dim, 1i8)])
        .map(|(dim, side)| {
            let mut c = [cx as i64, cy as i64, cz as i64];
            c[dim] += side as i64;
            let inside = c[0] >= 0
                && c[0] < px as i64
                && c[1] >= 0
                && c[1] < py as i64
                && c[2] >= 0
                && c[2] < pz as i64;
            let nb = inside.then(|| (c[0] + c[1] * px as i64 + c[2] * (px * py) as i64) as usize);
            (dim, side, nb)
        })
        .collect();

    sp.time("runtime.barrier", || ctx.barrier());
    let t = Timer::start();
    let (mut cur, mut nxt) = (a, b);
    let (mut dir_cur, mut dir_nxt) = (dir_a.clone(), dir_b.clone());
    for _ in 0..STENCIL_ITERS {
        for &(dim, side, nb) in &neighbors {
            if let Some(nb) = nb {
                sp.time("ndarray.copy_ghost", || {
                    cur.copy_ghost_from(ctx, &dir_cur[nb], interior, dim, side, 1)
                });
            }
        }
        sp.time("core.copy_fence", || async_copy_fence(ctx));
        sp.time("runtime.barrier", || ctx.barrier());
        sp.time("apps.stencil.compute", || {
            let src = LocalGrid::new(ctx, &cur);
            let dst = LocalGrid::new(ctx, &nxt);
            for i in lo[0]..lo[0] + e {
                for j in lo[1]..lo[1] + e {
                    for k in lo[2]..lo[2] + e {
                        let v = STENCIL_C * src.at(i, j, k)
                            + src.at(i, j, k + 1)
                            + src.at(i, j, k - 1)
                            + src.at(i, j + 1, k)
                            + src.at(i, j - 1, k)
                            + src.at(i + 1, j, k)
                            + src.at(i - 1, j, k);
                        dst.put(i, j, k, v);
                    }
                }
            }
        });
        std::mem::swap(&mut cur, &mut nxt);
        std::mem::swap(&mut dir_cur, &mut dir_nxt);
        sp.time("runtime.barrier", || ctx.barrier());
    }
    let seconds = t.seconds();
    let seconds = sp.time("runtime.allreduce", || ctx.allreduce(seconds, f64::max));
    let local_sum = sp.time("apps.stencil.checksum", || {
        let g = LocalGrid::new(ctx, &cur);
        let mut s = 0.0;
        interior.for_each(|p| s += g.at(p[0], p[1], p[2]));
        s
    });
    let checksum = sp.time("runtime.allreduce", || {
        ctx.allreduce(local_sum, |x, y| x + y)
    });
    sp.time("runtime.barrier", || ctx.barrier());
    sp.time("ndarray.destroy", || {
        a.destroy(ctx);
        b.destroy(ctx);
    });
    StepOut {
        app_seconds: seconds,
        checksum: checksum.to_bits(),
    }
}
