//! Counting-allocator proof that the connection plane keeps the service's
//! zero-allocation claim: once warm, pipelined requests over loopback
//! allocate nothing — across the server's I/O thread (reads, frame
//! parsing, submission, the completion drain, reply framing, the
//! deferred flush, counter publication), the shard workers, and
//! [`PipelinedClient`] itself. Warm blocking [`TcpClient`] calls on a
//! second connection, the facade over the same client, run in the same
//! counted window.
//!
//! Same counting allocator as `local_alloc.rs`; the allocator is global,
//! so the measured window covers every thread of the process. Single
//! `#[test]` so no concurrent test disturbs the counter.
//!
//! Warm means every reusable buffer has reached its high-water mark, and
//! the warm-up gets there deterministically rather than by luck of
//! timing: an oversized request per shard sizes the byte buffers on both
//! ends and the worker's slabs past anything a window of the measured
//! requests can need, and one stalled window holds the whole window in
//! flight at once, so the I/O thread makes every request slot it will
//! ever need.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dbi_core::Scheme;
use dbi_service::{
    ConnConfig, CostModel, EncodeReply, EncodeRequest, Engine, PipelinedClient, ServiceConfig,
    TcpClient, TcpServer, VerifyMode,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, which upholds the `GlobalAlloc`
// contract; the counter increment has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Pipelined requests kept in flight per round.
const WINDOW: usize = 16;
/// Sessions the window spreads over, so both shards serve it.
const SESSIONS: u64 = 4;
/// Lane groups of the measured requests, and of the sizing requests:
/// one sizing request carries more chains and bytes than a packed round
/// of a whole window, and its request and reply frames outweigh a whole
/// window's.
const GROUPS: u16 = 4;
const SIZING_GROUPS: u16 = 64;

#[test]
fn warm_pipelined_requests_are_allocation_free() {
    let engine = Engine::start(ServiceConfig {
        shards: 2,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind_with(
        &engine,
        "127.0.0.1:0",
        ConnConfig {
            io_threads: 1,
            ..ConnConfig::default()
        },
    )
    .unwrap();
    let mut client = PipelinedClient::connect(server.addr()).unwrap();
    let payload: Vec<u8> = (0..256u32).map(|i| (i * 37) as u8).collect();
    let mut reply = EncodeReply::new();

    // Sizing: one oversized masked request on a session of every shard.
    let sizing_payload: Vec<u8> = (0..16u32 << 10).map(|i| (i * 11) as u8).collect();
    for shard in 0..engine.shard_count() {
        let session_id = (1_000..)
            .find(|&id| engine.shard_of(id) == shard)
            .expect("every shard owns some session");
        client
            .submit(&EncodeRequest {
                session_id,
                scheme: Scheme::OptFixed,
                cost_model: CostModel::Inline,
                groups: SIZING_GROUPS,
                burst_len: 8,
                want_masks: true,
                verify: VerifyMode::Off,
                payload: &sizing_payload,
            })
            .unwrap();
        assert!(client.next_completion(&mut reply).unwrap().is_ok());
    }

    // One stalled window: the worker sleeps before each request of the
    // stalled session, so the I/O thread has parsed the whole window —
    // and made a request slot for each — before the first completes.
    const STALLED: u64 = 0x57A11;
    engine.inject_slowdown_for_tests(STALLED, Duration::from_millis(5));
    for _ in 0..WINDOW {
        client
            .submit(&EncodeRequest {
                session_id: STALLED,
                scheme: Scheme::OptFixed,
                cost_model: CostModel::Inline,
                groups: GROUPS,
                burst_len: 8,
                want_masks: true,
                verify: VerifyMode::Off,
                payload: &payload,
            })
            .unwrap();
    }
    for _ in 0..WINDOW {
        assert!(client.next_completion(&mut reply).unwrap().is_ok());
    }
    engine.inject_slowdown_for_tests(STALLED, Duration::ZERO);

    let mut run_rounds = |rounds: usize| {
        let mut served = 0u64;
        for _ in 0..rounds {
            for index in 0..WINDOW as u64 {
                let request = EncodeRequest {
                    session_id: index % SESSIONS,
                    scheme: Scheme::OptFixed,
                    cost_model: CostModel::Inline,
                    groups: GROUPS,
                    burst_len: 8,
                    want_masks: true,
                    verify: VerifyMode::Off,
                    payload: &payload,
                };
                client.submit(&request).unwrap();
            }
            for _ in 0..WINDOW {
                let done = client.next_completion(&mut reply).unwrap();
                assert!(done.is_ok());
                served += 1;
            }
        }
        served
    };

    // The blocking client: one request at a time on its own connection.
    let mut blocking = TcpClient::connect(server.addr()).unwrap();
    let mut blocking_reply = EncodeReply::new();
    let mut run_blocking = |calls: u64| {
        for index in 0..calls {
            let request = EncodeRequest {
                session_id: index % SESSIONS,
                scheme: Scheme::OptFixed,
                cost_model: CostModel::Inline,
                groups: GROUPS,
                burst_len: 8,
                want_masks: true,
                verify: VerifyMode::Off,
                payload: &payload,
            };
            blocking.encode(&request, &mut blocking_reply).unwrap();
        }
    };

    // Warm-up: the measured sessions exist and their first rounds ran.
    run_rounds(16);
    run_blocking(16);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let served = run_rounds(256);
    run_blocking(256);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "{served} warm pipelined and 256 blocking requests allocated {allocations} times"
    );
    assert_eq!(served, (256 * WINDOW) as u64);
    assert_eq!(reply.masks.len(), 32);
    assert_eq!(blocking_reply.masks.len(), 32);

    drop(client);
    drop(blocking);
    server.shutdown();
    engine.shutdown();
}
