//! Property-based tests over core data structures and invariants,
//! spanning several crates. Each property draws its cases from its own
//! fixed seed, so every run checks the same inputs and a failure message
//! names an input that replays exactly.

use rng::SplitMix64;
use simnet::{route, LinkProfile, Network, Topology};
use std::ops::Range;

/// A string of `len` characters drawn from `alphabet`.
fn text(rng: &mut SplitMix64, alphabet: &[u8], len: Range<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

/// Printable ASCII, space through tilde.
fn printable() -> Vec<u8> {
    (b' '..=b'~').collect()
}

// ---- simnet ----------------------------------------------------------------

/// Every route in every supported topology is a valid shortest path.
#[test]
fn routes_are_shortest_paths() {
    let mut rng = SplitMix64::new(1);
    for _ in 0..256 {
        let kind = rng.gen_range(0..6usize);
        let size_seed = rng.gen_range(2..10usize);
        let (a_seed, b_seed) = (rng.gen_range(0..100usize), rng.gen_range(0..100usize));
        let topo = match kind {
            0 => Topology::ring(size_seed.max(2)),
            1 => Topology::star(size_seed),
            2 => Topology::mesh2d(2, size_seed.max(2)),
            3 => Topology::hypercube((size_seed % 4) + 1),
            4 => Topology::tree(size_seed + 3),
            _ => Topology::segmented_cluster(2, size_seed.max(1)),
        };
        let n = topo.len();
        let (a, b) = (a_seed % n, b_seed % n);
        let path = route(&topo, a, b).unwrap();
        let case = format!("kind {kind}, size {size_seed}, {a} -> {b}: {path:?}");
        assert_eq!(path[0], a, "{case}");
        assert_eq!(*path.last().unwrap(), b, "{case}");
        assert!(simnet::routing::validate_path(&topo, &path), "{case}");
        assert_eq!(path.len() - 1, topo.bfs_distances(a)[b], "{case}");
    }
}

/// Message cost is monotone in payload size and additive over hops.
#[test]
fn message_cost_monotone() {
    let mut rng = SplitMix64::new(2);
    let net = Network::new(Topology::ring(6), LinkProfile::new(500, 1 << 28));
    for _ in 0..256 {
        let bytes = rng.gen_range(0..1_000_000u64);
        let extra = rng.gen_range(1..1_000_000u64);
        let small = net.message_cost(0, 3, bytes).unwrap();
        let large = net.message_cost(0, 3, bytes + extra).unwrap();
        assert!(large.total >= small.total, "{bytes} + {extra}");
        assert_eq!(small.hops, 3);
    }
}

// ---- vfs --------------------------------------------------------------------

/// Path normalization is idempotent and never escapes the root.
#[test]
fn vpath_normalization_idempotent() {
    let mut rng = SplitMix64::new(3);
    // "..a" once failed this property: it is a filename, not a `..` step.
    let drawn = (0..256).map(|_| text(&mut rng, b"abcdefghijklmnopqrstuvwxyz./", 0..41));
    for raw in std::iter::once("..a".to_string()).chain(drawn) {
        if let Ok(p) = vfs::VPath::parse(&raw) {
            let again = vfs::VPath::parse(&p.to_string()).unwrap();
            assert_eq!(p.to_string(), again.to_string(), "{raw:?}");
            // No component may survive as a literal `..` (names like "..a"
            // are legal filenames).
            assert!(p.components().iter().all(|c| c != ".."), "{raw:?}");
        }
    }
}

/// Quota accounting: used bytes always equal the sum of the user's file
/// sizes, through arbitrary write/overwrite/remove sequences.
#[test]
fn quota_matches_file_sizes() {
    let mut rng = SplitMix64::new(4);
    for _ in 0..256 {
        let mut fs = vfs::Vfs::new();
        fs.add_user("u", 1 << 20).unwrap();
        let ops: Vec<(usize, usize, usize)> = (0..rng.gen_range(1..40usize))
            .map(|_| {
                (
                    rng.gen_range(0..3),
                    rng.gen_range(0..4),
                    rng.gen_range(0..200),
                )
            })
            .collect();
        for &(op, which, size) in &ops {
            let path = format!("/home/u/{}", ["a", "b", "c", "d"][which]);
            match op {
                0 => {
                    let _ = fs.write("u", &path, vec![0; size]);
                }
                1 => {
                    let _ = fs.remove("u", &path);
                }
                _ => {
                    let _ = fs.append("u", &path, &vec![0; size % 50]);
                }
            }
        }
        let (used, _) = fs.quota("u").unwrap();
        let actual: u64 = fs
            .walk("u", "/home/u")
            .unwrap()
            .into_iter()
            .map(|(_, st)| st.size)
            .sum();
        assert_eq!(used, actual, "ops {ops:?}");
    }
}

// ---- auth ---------------------------------------------------------------------

/// SHA-256 streaming in arbitrary chunkings equals one-shot.
#[test]
fn sha256_chunking_invariant() {
    let mut rng = SplitMix64::new(5);
    for _ in 0..128 {
        let mut data = vec![0u8; rng.gen_range(0..2000)];
        rng.fill(&mut data);
        let mut points: Vec<usize> = (0..rng.gen_range(0..8usize))
            .map(|_| rng.gen_range(0..2000usize) % (data.len() + 1))
            .collect();
        points.sort_unstable();
        points.dedup();
        let mut h = auth::Sha256::new();
        let mut prev = 0;
        for &p in &points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        let case = format!("{} bytes cut at {points:?}", data.len());
        assert_eq!(h.finalize(), auth::Sha256::digest(&data), "{case}");
    }
}

/// Password verification accepts exactly the original password.
#[test]
fn password_roundtrip() {
    let mut rng = SplitMix64::new(6);
    let policy = auth::PasswordPolicy {
        iterations: 5,
        min_length: 1,
    };
    for _ in 0..128 {
        let pw = text(&mut rng, &printable(), 8..25);
        let wrong = text(&mut rng, &printable(), 8..25);
        let h = auth::PasswordHash::create_seeded(&pw, policy, 11);
        assert!(h.verify(&pw), "{pw:?}");
        if wrong != pw {
            assert!(!h.verify(&wrong), "{pw:?} accepted {wrong:?}");
        }
    }
}

// ---- cluster --------------------------------------------------------------------

/// MESI invariants hold under arbitrary access traces, and counters are
/// self-consistent.
#[test]
fn mesi_invariants_hold() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..192 {
        let mut sys = cluster::CacheSystem::new(4, 64, cluster::CoherenceProtocol::Mesi);
        let mut trace = Vec::new();
        for _ in 0..rng.gen_range(1..200usize) {
            let (core, addr) = (rng.gen_range(0..4usize), rng.gen_range(0..512u64));
            let kind = if rng.gen_bool(0.5) {
                cluster::AccessKind::Write
            } else {
                cluster::AccessKind::Read
            };
            trace.push((core, addr, kind));
            sys.access(core, addr, kind);
            assert!(sys.check_invariants(), "trace {trace:?}");
        }
        assert_eq!(sys.stats().accesses(), trace.len() as u64);
    }
}

/// Allocation and release leave the cluster exactly as found.
#[test]
fn allocate_release_conserves_cores() {
    let mut rng = SplitMix64::new(8);
    for _ in 0..192 {
        let mut c = cluster::Cluster::new(cluster::ClusterSpec::small(2, 3));
        let initial = c.free_cores();
        let requests: Vec<u32> = (0..rng.gen_range(1..12usize))
            .map(|_| rng.gen_range(1..12usize) as u32)
            .collect();
        let mut allocs = Vec::new();
        for &r in &requests {
            if let Ok(a) = c.allocate_cores(r) {
                assert_eq!(a.total_cores(), r, "requests {requests:?}");
                allocs.push(a);
            }
        }
        let held: u32 = allocs.iter().map(|a| a.total_cores()).sum();
        assert_eq!(c.free_cores(), initial - held, "requests {requests:?}");
        for a in &allocs {
            c.release(a);
        }
        assert_eq!(c.free_cores(), initial, "requests {requests:?}");
    }
}

// ---- minilang ----------------------------------------------------------------------

/// The locked counter is exact for arbitrary iteration counts and seeds.
#[test]
fn locked_counter_always_exact() {
    let mut rng = SplitMix64::new(9);
    for _ in 0..96 {
        let n = rng.gen_range(1..=119i64);
        let seed = rng.gen_range(0..500u64);
        let src = format!(
            r#"
            var counter = 0;
            var m;
            fn w() {{ for (var i = 0; i < {n}; i = i + 1) {{ lock(m); counter = counter + 1; unlock(m); }} }}
            fn main() {{ m = mutex(); var a = spawn w(); var b = spawn w(); join(a); join(b); return counter; }}
        "#
        );
        let out = minilang::compile_and_run(&src, seed).unwrap();
        let expect = minilang::Value::Int(2 * n);
        assert_eq!(out.main_result, expect, "n {n}, seed {seed}");
    }
}

/// Arithmetic expression evaluation matches Rust's (wrapping) semantics.
#[test]
fn arithmetic_matches_rust() {
    let mut rng = SplitMix64::new(10);
    for _ in 0..96 {
        let (a, b) = (rng.gen_range(-1000..=999i64), rng.gen_range(-1000..=999i64));
        let c = rng.gen_range(1..=99i64);
        let src = format!("fn main() {{ return ({a} + {b}) * {c} + {a} / {c} - {b} % {c}; }}");
        let expect = (a.wrapping_add(b))
            .wrapping_mul(c)
            .wrapping_add(a.wrapping_div(c))
            .wrapping_sub(b.wrapping_rem(c));
        let out = minilang::compile_and_run(&src, 0).unwrap();
        assert_eq!(out.main_result, minilang::Value::Int(expect), "{src}");
    }
}

/// JSON round-trips arbitrary string payloads.
#[test]
fn json_string_roundtrip() {
    let mut rng = SplitMix64::new(11);
    for _ in 0..96 {
        let s = text(&mut rng, &printable(), 0..61);
        let v = httpd::Json::str(s.clone());
        let parsed = httpd::Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(s.as_str()));
    }
}

/// Characters that exercise every branch of the JSON string codec: the
/// short escapes, the `\u00xx` control characters, `\u{7f}`, two- to
/// four-byte UTF-8 and plain ASCII.
const JSON_CHARS: &[char] = &[
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
    '\u{7f}', 'é', '☃', '𝄞',
];

/// A random JSON value at most four levels deep: nested arrays and
/// objects, finite numbers, and strings and keys drawn from
/// [`JSON_CHARS`].
fn json_value(rng: &mut SplitMix64, depth: u32) -> httpd::Json {
    use httpd::Json;
    let string = |rng: &mut SplitMix64| -> String {
        let n = rng.gen_range(0..9usize);
        (0..n)
            .map(|_| JSON_CHARS[rng.gen_range(0..JSON_CHARS.len())])
            .collect()
    };
    let kind = if depth >= 4 {
        rng.gen_range(0..4usize)
    } else {
        rng.gen_range(0..6usize)
    };
    match kind {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::num(if rng.gen_bool(0.5) {
            rng.gen_range(-1_000_000_000i64..=1_000_000_000) as f64
        } else {
            rng.gen_range(-1e9..1e9)
        }),
        3 => Json::Str(string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0..5usize))
                .map(|_| json_value(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (string(rng), json_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

/// JSON round-trips nested values, control characters and non-ASCII in
/// strings and keys included, and re-encoding a parsed value gives the
/// same text.
#[test]
fn json_nested_roundtrip() {
    let mut rng = SplitMix64::new(16);
    for _ in 0..512 {
        let v = json_value(&mut rng, 0);
        let text = v.to_string();
        let parsed = httpd::Json::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(parsed, v, "{text:?}");
        assert_eq!(parsed.to_string(), text);
    }
}

// ---- checker ---------------------------------------------------------------

/// The interleaving checker is total over arbitrary small concurrent
/// programs (no panic, no hang within budget), any failure it reports
/// comes with a repro schedule that replays to the same failure class,
/// and properly synchronized bodies are never flagged.
#[test]
fn checker_is_total_and_repros_replay() {
    let mut rng = SplitMix64::new(12);
    for _ in 0..96 {
        let threads = rng.gen_range(1..4usize);
        let iters = rng.gen_range(1..=3i64);
        let body = rng.gen_range(0..4usize);
        let seed = rng.gen_range(0..64u64);
        let stmt = match body {
            0 => "counter = counter + 1;",
            1 => "lock(m); counter = counter + 1; unlock(m);",
            2 => "atomic_add(counter, 1);",
            _ => "lock(m); unlock(m); counter = counter + 1;",
        };
        let mut src = String::from("var counter = 0;\nvar m;\n");
        src.push_str(&format!(
            "fn w() {{ for (var i = 0; i < {iters}; i = i + 1) {{ {stmt} }} }}\n"
        ));
        src.push_str("fn main() { m = mutex();");
        for t in 0..threads {
            src.push_str(&format!(" var t{t} = spawn w();"));
        }
        for t in 0..threads {
            src.push_str(&format!(" join(t{t});"));
        }
        src.push_str(" return counter; }\n");

        let cfg = checker::CheckConfig {
            max_schedules: 12,
            max_steps: 60_000,
            steps_per_schedule: 8_000,
            minimize_replays: 12,
            seed,
            ..checker::CheckConfig::default()
        };
        let prog = minilang::compile(&src).unwrap();
        let report = checker::check(&prog, &cfg);

        if report.verdict.is_failure() {
            let repro = report
                .repro
                .clone()
                .expect("failure verdicts carry a repro");
            assert!(!repro.is_empty(), "repro schedules are never empty");
            let replayed = checker::replay_schedule(&prog, &cfg, &repro);
            assert!(
                report.verdict.same_failure(&replayed),
                "repro replayed to {replayed:?}, expected {:?} (seed {seed})\n{src}",
                report.verdict
            );
        }
        // Locked and atomic bodies (and single-thread runs of anything) are
        // genuinely clean; the checker must never invent a failure for them.
        // Bodies 0 and 3 leave the increment unprotected, so any verdict
        // short of a panic is acceptable there.
        if matches!(body, 1 | 2) || threads == 1 {
            assert!(
                !report.verdict.is_failure(),
                "false positive on clean program: {:?} (seed {seed})\n{src}",
                report.verdict
            );
        }
    }
}

// ---- compile cache ---------------------------------------------------------

/// Content addressing is exact: recompiling byte-identical source hits
/// the cache and yields an identical program, while flipping any single
/// byte of the source misses.
#[test]
fn compile_cache_is_content_exact() {
    let mut rng = SplitMix64::new(13);
    for _ in 0..128 {
        let (a, b) = (rng.gen_range(0..=999i64), rng.gen_range(0..=999i64));
        let flip = rng.next_u64() as usize;
        let src = format!("fn main() {{ var x = {a}; println(x + {b}); }}");
        let mut cache = toolchain::CompileCache::new(16);

        let prog = minilang::compile(&src).unwrap();
        cache.insert(&src, prog.clone());
        let hit = cache.lookup(&src);
        assert!(hit.is_some(), "identical source must hit");
        assert_eq!(
            format!("{:?}", hit.unwrap()),
            format!("{prog:?}"),
            "cached program must be the inserted one"
        );

        // The source is pure ASCII, so flipping the low bit of any byte
        // keeps it valid UTF-8 while changing exactly one byte.
        let mut mutated = src.clone().into_bytes();
        let i = flip % mutated.len();
        mutated[i] ^= 1;
        let mutated = String::from_utf8(mutated).unwrap();
        assert!(
            cache.lookup(&mutated).is_none(),
            "one-byte change at offset {i} of {src:?} must miss"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}

// ---- VM snapshot/restore ---------------------------------------------------

/// Snapshot → steps → restore → re-steps is indistinguishable from the
/// first execution of that suffix: same event trace, same canonical
/// state, same instruction count. Random split points and schedules;
/// `tests/vm_snapshot.rs` sweeps a fixed grid of the same invariant.
#[test]
fn vm_snapshot_roundtrip_is_exact() {
    let mut rng = SplitMix64::new(14);
    for _ in 0..192 {
        let seed = rng.gen_range(0..32u64);
        let prefix = rng.gen_range(0..50usize);
        let suffix = rng.gen_range(1..40usize);
        let pick = rng.gen_range(0..1000usize);
        let threads = rng.gen_range(2..4usize);
        let case = format!(
            "seed {seed}, prefix {prefix}, suffix {suffix}, pick {pick}, threads {threads}"
        );

        let mut src = String::from("var total = 0;\nvar m;\nvar c;\n");
        src.push_str(
            "fn w(k) { var a = [k, k + 1]; lock(m); total = total + a[0] + rand_int(0, 2); \
             unlock(m); send(c, a); }\n",
        );
        src.push_str("fn main() { m = mutex(); c = channel(1);");
        for t in 0..threads {
            src.push_str(&format!(" var t{t} = spawn w({t});"));
        }
        for t in 0..threads {
            src.push_str(&format!(
                " var r{t} = recv(c); total = total + r{t}[1]; join(t{t});"
            ));
        }
        src.push_str(" println(total); return total; }\n");
        let prog = minilang::compile(&src).unwrap();

        let fresh = || {
            let mut vm = minilang::Vm::new(
                prog.clone(),
                minilang::VmConfig {
                    seed,
                    quantum: 1,
                    max_instructions: 200_000,
                    policy: minilang::SchedPolicy::RoundRobin,
                },
            );
            vm.set_recording(true);
            vm
        };
        // Step up to `n` visible slices, picking enabled threads from `salt`;
        // record chosen tids and debug-formatted events.
        let drive = |vm: &mut minilang::Vm,
                     n: usize,
                     salt: usize,
                     tids: &mut Vec<usize>,
                     events: &mut Vec<String>| {
            for s in 0..n {
                if vm.all_finished() {
                    break;
                }
                let en = vm.enabled_threads();
                if en.is_empty() {
                    if !vm.advance_clock() {
                        break;
                    }
                    continue;
                }
                let tid = en[salt.wrapping_add(s).wrapping_mul(2654435761) % en.len()];
                if vm.step_thread(tid, 1).is_err() {
                    break;
                }
                tids.push(tid);
                events.extend(vm.drain_events().iter().map(|e| format!("{e:?}")));
            }
        };
        let replay = |vm: &mut minilang::Vm, tids: &[usize], events: &mut Vec<String>| {
            for &tid in tids {
                while !vm.is_enabled(tid) {
                    assert!(vm.advance_clock(), "replayed thread {tid} not enabled");
                }
                vm.step_thread(tid, 1).expect("replayed step succeeds");
                events.extend(vm.drain_events().iter().map(|e| format!("{e:?}")));
            }
        };

        let mut vm = fresh();
        let mut ptids = Vec::new();
        let mut pevents = Vec::new();
        drive(&mut vm, prefix, pick, &mut ptids, &mut pevents);
        let snap = vm.snapshot();
        let hash_at_snap = vm.state_hash();

        let mut tids = Vec::new();
        let mut first = Vec::new();
        drive(
            &mut vm,
            suffix,
            pick.wrapping_mul(31),
            &mut tids,
            &mut first,
        );
        let first_hash = vm.state_hash();
        let first_executed = vm.executed();

        vm.restore(&snap);
        assert_eq!(
            vm.state_hash(),
            hash_at_snap,
            "restore lands on snapshot state; {case}"
        );
        let mut second = Vec::new();
        replay(&mut vm, &tids, &mut second);
        assert_eq!(
            &second, &first,
            "restored run re-emits the event trace; {case}"
        );
        assert_eq!(
            vm.state_hash(),
            first_hash,
            "restored run reaches the same state; {case}"
        );
        assert_eq!(
            vm.executed(),
            first_executed,
            "restored run counts the same work; {case}"
        );

        // A fresh VM replaying prefix + suffix agrees with both.
        let mut fv = fresh();
        let mut scratch = Vec::new();
        replay(&mut fv, &ptids, &mut scratch);
        assert_eq!(
            fv.state_hash(),
            hash_at_snap,
            "fresh prefix replay agrees; {case}"
        );
        scratch.clear();
        replay(&mut fv, &tids, &mut scratch);
        assert_eq!(
            &scratch, &first,
            "fresh suffix replay re-emits the trace; {case}"
        );
        assert_eq!(
            fv.state_hash(),
            first_hash,
            "fresh replay reaches the same state; {case}"
        );
    }
}

// ---- parallel exploration --------------------------------------------------

/// The pooled checker is observationally serial: for arbitrary small
/// racy/clean programs, worker counts, and budgets, its report equals
/// the serial one exactly.
#[test]
fn pooled_check_equals_serial() {
    let mut rng = SplitMix64::new(15);
    for _ in 0..64 {
        let threads = rng.gen_range(2..4usize);
        let locked = rng.gen_bool(0.5);
        let workers = rng.gen_range(2..5usize);
        let max_schedules = rng.gen_range(2..=16u64);
        let seed = rng.gen_range(0..64u64);
        let stmt = if locked {
            "lock(m); counter = counter + 1; unlock(m);"
        } else {
            "counter = counter + 1;"
        };
        let mut src = String::from("var counter = 0;\nvar m;\n");
        src.push_str(&format!("fn w() {{ {stmt} }}\n"));
        src.push_str("fn main() { m = mutex();");
        for t in 0..threads {
            src.push_str(&format!(" var t{t} = spawn w();"));
        }
        for t in 0..threads {
            src.push_str(&format!(" join(t{t});"));
        }
        src.push_str(" return counter; }\n");

        let cfg = checker::CheckConfig {
            max_schedules,
            max_steps: 60_000,
            steps_per_schedule: 8_000,
            seed,
            ..checker::CheckConfig::default()
        };
        let prog = minilang::compile(&src).unwrap();
        let serial = checker::check(&prog, &cfg);
        let parallel = checker::Pool::new(workers).check(&prog, &cfg);
        assert_eq!(
            parallel, serial,
            "{workers} workers diverged (schedules {max_schedules}, seed {seed})"
        );
    }
}
