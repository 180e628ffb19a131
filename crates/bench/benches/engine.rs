//! Microbenchmarks of the simulator's hot paths: raw cycle throughput,
//! the write buffer's probe/merge/retire loop, cache operations, and
//! trace generation/serialization.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use wbsim_core::buffer::WriteBuffer;
use wbsim_mem::{L1Cache, MainMemory};
use wbsim_sim::Machine;
use wbsim_trace::bench_models::BenchmarkModel;
use wbsim_trace::file as trace_file;
use wbsim_types::addr::{Addr, Geometry, LineAddr};
use wbsim_types::config::{L1Config, MachineConfig, WriteBufferConfig};
use wbsim_types::op::Op;
use wbsim_types::policy::{LoadHazardPolicy, RetirementPolicy};

const N: u64 = 100_000;

fn sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(N));

    for (name, bench) in [
        ("sim_compress_baseline", BenchmarkModel::Compress),
        ("sim_fft_baseline", BenchmarkModel::Fft),
        ("sim_gmtry_baseline", BenchmarkModel::Gmtry),
    ] {
        let ops = bench.stream(42, N);
        let cfg = MachineConfig {
            check_data: false,
            ..MachineConfig::baseline()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                let stats = Machine::new(cfg.clone()).unwrap().run(ops.iter().copied());
                criterion::black_box(stats.cycles)
            })
        });
    }

    // Data checking (the golden shadow model) costs one hash lookup per
    // reference; track its overhead.
    let ops = BenchmarkModel::Compress.stream(42, N);
    let cfg = MachineConfig {
        check_data: true,
        ..MachineConfig::baseline()
    };
    g.bench_function("sim_compress_checked", |b| {
        b.iter(|| {
            let stats = Machine::new(cfg.clone()).unwrap().run(ops.iter().copied());
            criterion::black_box(stats.cycles)
        })
    });

    // The recommended configuration (12-deep, retire-at-8, read-from-WB).
    let cfg = MachineConfig {
        write_buffer: WriteBufferConfig {
            depth: 12,
            retirement: RetirementPolicy::RetireAt(8),
            hazard: LoadHazardPolicy::ReadFromWb,
            ..WriteBufferConfig::baseline()
        },
        check_data: false,
        ..MachineConfig::baseline()
    };
    g.bench_function("sim_compress_recommended", |b| {
        b.iter(|| {
            let stats = Machine::new(cfg.clone()).unwrap().run(ops.iter().copied());
            criterion::black_box(stats.cycles)
        })
    });
    g.finish();
}

fn write_buffer_ops(c: &mut Criterion) {
    let g = Geometry::alpha_baseline();
    let mut group = c.benchmark_group("write_buffer");
    group.throughput(Throughput::Elements(1024));

    group.bench_function("store_merge_loop", |b| {
        let cfg = WriteBufferConfig {
            depth: 12,
            retirement: RetirementPolicy::RetireAt(8),
            ..WriteBufferConfig::baseline()
        };
        b.iter(|| {
            let mut wb = WriteBuffer::new(&cfg, &g).unwrap();
            for i in 0..1024u64 {
                // Coalescing stream with periodic drains.
                let _ = criterion::black_box(wb.store(Addr::new((i % 40) * 8), i, i));
                if wb.is_full() {
                    let id = wb.next_retirement().unwrap();
                    wb.begin_retire(id);
                    criterion::black_box(wb.take_retired(id));
                }
            }
            wb.occupancy()
        })
    });

    group.bench_function("probe_line_hazard_check", |b| {
        let cfg = WriteBufferConfig {
            depth: 12,
            retirement: RetirementPolicy::RetireAt(12),
            ..WriteBufferConfig::baseline()
        };
        let mut wb = WriteBuffer::new(&cfg, &g).unwrap();
        for i in 0..12u64 {
            wb.store(Addr::new(i * 32), i, i);
        }
        b.iter(|| {
            let mut hits = 0;
            for l in 0..1024u64 {
                hits += wb.probe_line(LineAddr::new(l % 24)).len();
            }
            criterion::black_box(hits)
        })
    });
    group.finish();
}

fn cache_ops(c: &mut Criterion) {
    let g = Geometry::alpha_baseline();
    let mut group = c.benchmark_group("caches");
    group.throughput(Throughput::Elements(4096));
    group.bench_function("l1_fill_load_mix", |b| {
        let mut mem = MainMemory::new();
        for w in 0..4096u64 {
            mem.write_word(w, w);
        }
        b.iter(|| {
            let mut l1 = L1Cache::new(&L1Config::baseline(), &g).unwrap();
            let mut sum = 0u64;
            for i in 0..4096u64 {
                let line = LineAddr::new(i % 512);
                match l1.load_word(line, (i % 4) as usize) {
                    Some(v) => sum = sum.wrapping_add(v),
                    None => {
                        l1.fill(line, mem.read_line(&g, line));
                    }
                }
            }
            criterion::black_box(sum)
        })
    });
    group.finish();
}

fn trace_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(N));
    group.bench_function("generate_cc1", |b| {
        b.iter(|| criterion::black_box(BenchmarkModel::Cc1.stream(42, N).len()))
    });
    group.bench_function("generate_gmtry_kernel", |b| {
        b.iter(|| criterion::black_box(BenchmarkModel::Gmtry.stream(42, N).len()))
    });

    let ops = BenchmarkModel::Cc1.stream(42, 20_000);
    group.throughput(Throughput::Elements(ops.len() as u64));
    group.bench_function("binary_roundtrip", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            trace_file::write_binary(&mut buf, &ops).unwrap();
            let back = trace_file::read_binary(&buf[..]).unwrap();
            criterion::black_box(back.len())
        })
    });
    group.finish();
}

fn non_blocking_throughput(c: &mut Criterion) {
    use wbsim_sim::NonBlockingMachine;
    let ops = BenchmarkModel::Su2cor.stream(42, N);
    let cfg = MachineConfig {
        write_buffer: WriteBufferConfig {
            depth: 12,
            retirement: RetirementPolicy::RetireAt(8),
            hazard: LoadHazardPolicy::ReadFromWb,
            ..WriteBufferConfig::baseline()
        },
        check_data: false,
        ..MachineConfig::baseline()
    };
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(N));
    group.bench_function("sim_su2cor_non_blocking", |b| {
        b.iter(|| {
            let stats = NonBlockingMachine::new(cfg.clone(), 8)
                .unwrap()
                .run(ops.iter().copied());
            criterion::black_box(stats.cycles)
        })
    });
    group.finish();
}

fn analytic_model(c: &mut Criterion) {
    use wbsim_analytic::{inputs_from_trace, predict};
    let ops = BenchmarkModel::Fft.stream(42, N);
    let cfg = MachineConfig::baseline();
    let mut group = c.benchmark_group("analytic");
    group.throughput(Throughput::Elements(N));
    group.bench_function("inputs_from_trace_fft", |b| {
        b.iter(|| criterion::black_box(inputs_from_trace(&ops, &cfg)))
    });
    let inputs = inputs_from_trace(&ops, &cfg);
    group.bench_function("predict", |b| {
        b.iter(|| criterion::black_box(predict(&inputs, &cfg)))
    });
    group.finish();
}

fn ideal_vs_real(c: &mut Criterion) {
    let ops: Vec<Op> = BenchmarkModel::Su2cor.stream(42, N);
    let cfg = MachineConfig {
        check_data: false,
        ..MachineConfig::baseline()
    };
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(N));
    group.bench_function("sim_su2cor_ideal_mode", |b| {
        b.iter(|| {
            let stats = Machine::new(cfg.clone())
                .unwrap()
                .run_ideal(ops.iter().copied());
            criterion::black_box(stats.cycles)
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = engine_group;
    config = config();
    targets = sim_throughput, write_buffer_ops, cache_ops, trace_paths,
              ideal_vs_real, non_blocking_throughput, analytic_model
}
criterion_main!(engine_group);
