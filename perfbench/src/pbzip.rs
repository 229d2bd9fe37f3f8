//! `pbzip`: the paper's PBZip2 application (Fig. 2) on 4 MB of generated
//! text, 100 kB blocks, two workers, STM+CondVar.
//!
//! Each round runs the pipeline `compress_parallel` runs — a producer
//! pushing blocks into a `TleFifo`, workers popping, compressing with
//! `compress_block` and handing results to an `OrderedSink` — assembled
//! here from those public stages so that every call can be timed. Every
//! round's output must be byte-identical to `compress_parallel`'s output
//! for the same input, and every block of it must decompress back to its
//! input block.

use crate::hist::{timed, Hist};
use crate::kv::put_tm_stats;
use crate::span::{self, SpanLog, NONE};
use crate::{median, Args, Outcome, Slices};
use std::sync::Arc;
use std::time::Instant;
use tle_core::{AlgoMode, TmSystem};
use tle_pbz::{
    compress_block, compress_parallel, decompress_block, gen_text, OrderedSink, PipelineConfig,
    TleFifo,
};

const INPUT_BYTES: usize = 4_000_000;
const BLOCK: usize = 100_000;
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

struct Item {
    id: u64,
    data: Vec<u8>,
    /// When the producer called `push` for this block.
    pushed: Instant,
}

/// Per-call times of one stage thread, or of a whole round once merged.
#[derive(Default)]
struct Calls {
    pop: Hist,
    push: Hist,
    codec: Hist,
    submit: Hist,
    /// `decompress_block` in the round-trip check (not part of `all`).
    read: Hist,
    /// Block sojourn: `push` called → `submit` returned.
    sojourn: Hist,
    all: Hist,
}

impl Calls {
    fn merge(&mut self, o: &Calls) {
        self.pop.merge(&o.pop);
        self.push.merge(&o.push);
        self.codec.merge(&o.codec);
        self.submit.merge(&o.submit);
        self.read.merge(&o.read);
        self.sojourn.merge(&o.sojourn);
        self.all.merge(&o.all);
    }
}

/// One measured phase: some number of whole rounds.
#[derive(Default)]
struct Phase {
    calls: Calls,
    logs: Vec<SpanLog>,
    blocks: u64,
    failed: u64,
    secs: f64,
    /// Each round's throughput and call-time quantiles.
    slices: Slices,
}

impl Phase {
    fn blocks_per_s(&self) -> f64 {
        self.blocks as f64 / self.secs
    }
}

/// Compress `input` once through the pipeline stages; the framed output
/// and the round's call times.
fn round(
    sys: &Arc<TmSystem>,
    input: &[u8],
    traced: bool,
    round_id: u64,
    phase: &mut Phase,
) -> (Vec<u8>, Calls) {
    let queue: TleFifo<Item> = TleFifo::new("pbz-input", PipelineConfig::default().fifo_cap);
    let sink = OrderedSink::new();
    sys.adopt_lock(queue.lock());
    sys.adopt_lock(sink.lock());
    let req = |id: u64| (round_id << 32) | id;
    let (queue, sink_ref) = (&queue, &sink);
    let parts: Vec<(Calls, SpanLog)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(move || {
                    let th = sys.register();
                    let (mut c, mut spans) = (Calls::default(), SpanLog::default());
                    loop {
                        let t0 = Instant::now();
                        let Some(item) = queue.pop(&th) else { break };
                        let t1 = Instant::now();
                        let out = compress_block(&item.data);
                        let t2 = Instant::now();
                        sink_ref.submit(&th, item.id, &out);
                        let t3 = Instant::now();
                        let stages = [
                            (&mut c.pop, "pbz.pop", t0, t1),
                            (&mut c.codec, "pbz.codec", t1, t2),
                            (&mut c.submit, "pbz.submit", t2, t3),
                        ];
                        let block = if traced {
                            spans.record("pbz.block", item.pushed, t3, NONE, req(item.id))
                        } else {
                            NONE
                        };
                        for (h, name, a, b) in stages {
                            h.record((b - a).as_nanos() as u64);
                            c.all.record((b - a).as_nanos() as u64);
                            if traced {
                                spans.record(name, a, b, block, req(item.id));
                            }
                        }
                        c.sojourn.record((t3 - item.pushed).as_nanos() as u64);
                    }
                    (c, spans)
                })
            })
            .collect();
        let th = sys.register();
        let (mut c, mut spans) = (Calls::default(), SpanLog::default());
        for (id, chunk) in input.chunks(BLOCK).enumerate() {
            let data = chunk.to_vec();
            let t0 = Instant::now();
            let pushed = queue.push(
                &th,
                Box::new(Item {
                    id: id as u64,
                    data,
                    pushed: t0,
                }),
            );
            let t1 = Instant::now();
            c.push.record((t1 - t0).as_nanos() as u64);
            c.all.record((t1 - t0).as_nanos() as u64);
            if traced {
                spans.record("pbz.push", t0, t1, NONE, req(id as u64));
            }
            phase.blocks += 1;
            phase.failed += u64::from(pushed.is_err());
        }
        queue.close(&th);
        let mut parts = vec![(c, spans)];
        for w in workers {
            match w.join() {
                Ok(p) => parts.push(p),
                Err(_) => phase.failed += 1,
            }
        }
        parts
    });
    let mut calls = Calls::default();
    for (c, spans) in parts {
        calls.merge(&c);
        phase.logs.push(spans);
    }
    (sink.into_bytes(), calls)
}

/// Run whole rounds until `window` has passed. Each round's output must
/// equal `reference` frame for frame and decompress back to `input`; the
/// check runs after the round's clock stops.
fn phase(
    sys: &Arc<TmSystem>,
    input: &[u8],
    reference: &[u8],
    window: std::time::Duration,
    traced: bool,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut r = 0;
    while start.elapsed() < window {
        let (t, blocks) = (Instant::now(), p.blocks);
        let (out, mut c) = round(sys, input, traced, r, &mut p);
        let secs = t.elapsed().as_secs_f64();
        p.failed += frame_mismatches(&out, reference) + round_trip(&out, input, &mut c);
        p.secs += secs;
        let rate = (p.blocks - blocks) as f64 / secs;
        p.slices.add("ops_per_s", rate);
        p.slices.add("mb_per_s", rate * BLOCK as f64 / 1e6);
        p.slices.add("get_p50_us", us(&c.read, 0.50));
        p.slices.add("get_p99_us", us(&c.read, 0.99));
        p.slices.add("put_p50_us", us(&c.sojourn, 0.50));
        p.slices.add("put_p99_us", us(&c.sojourn, 0.99));
        p.slices.add("hot_p50_us", us(&c.codec, 0.50));
        p.slices.add("hot_p99_us", us(&c.codec, 0.99));
        p.slices.add("bystander_p99_us", us(&c.push, 0.99));
        p.calls.merge(&c);
        r += 1;
    }
    p
}

fn frame_mismatches(out: &[u8], reference: &[u8]) -> u64 {
    let want = OrderedSink::split_frames(reference).unwrap_or_default();
    match OrderedSink::split_frames(out) {
        Ok(got) => {
            let differing = got.iter().zip(&want).filter(|(x, y)| x != y).count();
            (differing + got.len().abs_diff(want.len())) as u64
        }
        Err(_) => want.len().max(1) as u64,
    }
}

/// Decompress every frame of `out`, timing each `decompress_block` call,
/// and compare it with its input block; the number of blocks that fail.
fn round_trip(out: &[u8], input: &[u8], calls: &mut Calls) -> u64 {
    let want: Vec<&[u8]> = input.chunks(BLOCK).collect();
    let Ok(frames) = OrderedSink::split_frames(out) else {
        return want.len() as u64;
    };
    let mut failed = frames.len().abs_diff(want.len()) as u64;
    for (frame, block) in frames.iter().zip(&want) {
        let (got, ns) = timed(|| decompress_block(frame));
        calls.read.record(ns);
        failed += u64::from(got.ok().as_deref() != Some(*block));
    }
    failed
}

fn us(h: &Hist, q: f64) -> f64 {
    h.quantile(q) / 1_000.0
}

/// Run `pbzip` as `args` asks.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let sys = Arc::new(TmSystem::new(AlgoMode::StmCondvar));
        let input = gen_text(args.seed, INPUT_BYTES);
        built = Some((sys, input));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (sys, input) = built.expect("at least one set-up");
    let setup_s = median(setups.clone());

    let cfg = PipelineConfig {
        workers: WORKERS,
        block_size: BLOCK,
        ..PipelineConfig::default()
    };
    let t = Instant::now();
    let reference = compress_parallel(&sys, &input, &cfg);
    let reference_s = t.elapsed().as_secs_f64();
    out.notes.push(format!(
        "compress_parallel reference: {reference_s:.3}s for {INPUT_BYTES} bytes"
    ));
    sys.reset_stats();
    tle_stm::reset_buf_alloc_stats();

    let measured = if !args.trace {
        // Rounds are the slices: each metric is the median round's.
        let mut m = phase(&sys, &input, &reference, args.window(), false);
        std::mem::take(&mut m.slices).report(&mut out);
        out.put("setup_s", setup_s);
        out.notes.push(format!(
            "{} blocks in {:.2}s; setups {:?}",
            m.blocks, m.secs, setups
        ));
        vec![m]
    } else {
        let reference_phase = phase(&sys, &input, &reference, args.window() / 3, false);
        sys.reset_stats();
        tle_stm::reset_buf_alloc_stats();
        let origin = Instant::now();
        let traced = phase(
            &sys,
            &input,
            &reference,
            args.window() - args.window() / 3,
            true,
        );
        let stats = sys.domain_stats();
        let c = &traced.calls;
        let blocks = traced.blocks;
        out.put("pbz.codec_ns_per_block", c.codec.mean());
        out.put(
            "pbz.codec_busy_frac",
            c.codec.mean() * c.codec.count() as f64 / (WORKERS as f64 * traced.secs * 1e9),
        );
        out.put("pbz.sink_ns_per_block", c.submit.mean());
        out.put("condvar.pop_wait_ns_per_block", c.pop.mean());
        out.put("condvar.push_wait_ns_per_block", c.push.mean());
        put_tm_stats(
            &mut out,
            &stats,
            tle_stm::buf_alloc_stats().fresh_allocs,
            blocks,
        );
        out.put(
            "trace.overhead.ops_frac",
            1.0 - traced.blocks_per_s() / reference_phase.blocks_per_s(),
        );
        out.put(
            "trace.overhead.call_p50_ns",
            c.all.quantile(0.5) - reference_phase.calls.all.quantile(0.5),
        );
        let spans: u64 = traced.logs.iter().map(SpanLog::seen).sum();
        out.put("trace.spans", spans as f64);
        out.notes.push(format!(
            "traced {:.1} blocks/s vs untraced {:.1} blocks/s",
            traced.blocks_per_s(),
            reference_phase.blocks_per_s()
        ));
        let path = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match span::write_jsonl(&path, &args.fingerprint, origin, &traced.logs) {
            Ok(()) => out
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.notes.push(format!("spans not written: {e}")),
        }
        vec![reference_phase, traced]
    };
    out.attempted = measured.iter().map(|p| p.blocks).sum();
    out.failed = measured.iter().map(|p| p.failed).sum::<u64>();
    if out.failed > 0 {
        out.notes.push(format!(
            "FAIL {} blocks differ from compress_parallel's or do not round-trip",
            out.failed
        ));
    }
    out
}
