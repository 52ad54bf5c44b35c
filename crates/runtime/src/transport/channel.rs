//! The original in-process backend: one unbounded crossbeam channel per
//! receiving rank, every peer holding a sender clone.
//!
//! This is the PR-4 fabric with one correction: channel closure alone never
//! produced a reliable disconnect signal (every receiver kept live senders
//! from its *other* peers, so a dead rank left the survivors blocked in
//! `recv` forever). The [`super::Recv::Goodbye`] protocol fixes that — a
//! dropped endpoint posts an explicit goodbye to every peer, FIFO-after its
//! earlier messages, and the rank loop errors only when a peer it still
//! awaits is gone.

use super::{bad_peer, Recv, Transport, TransportError, TransportMetrics};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

enum Wire {
    Halo {
        from: usize,
        level: u8,
        seq: u64,
        payload: Vec<f64>,
        /// Maturation instant for link-latency shaping: the receiver may
        /// not observe this message before `ready_at` (`None` = immediate).
        ready_at: Option<Instant>,
    },
    Goodbye {
        from: usize,
    },
}

/// One rank's endpoint of the channel fabric.
pub struct ChannelTransport {
    rank: usize,
    n: usize,
    /// `tx[p]` posts into peer `p`'s inbox; `tx[rank]` is unused.
    tx: Vec<Sender<Wire>>,
    rx: Receiver<Wire>,
    /// A popped-but-immature message parked by `try_recv_into` (channels
    /// cannot peek); every receive path consumes this before the channel.
    staged: Option<Wire>,
    closed: bool,
    /// Emulated wire latency: messages are stamped `now + latency` at send
    /// and mature at the receiver (zero = classic immediate delivery).
    latency: Duration,
    metrics: TransportMetrics,
}

/// Build `n` fully connected endpoints.
pub fn channel_cluster(n: usize) -> Vec<Box<dyn Transport>> {
    channel_cluster_with_latency(n, Duration::ZERO)
}

/// Build `n` fully connected endpoints whose messages take `latency` to
/// "cross the wire": a send is visible to the receiver only `latency`
/// after it was posted, like an in-flight MPI message. The sender is never
/// blocked — this shapes *delivery*, unlike the `FaultyTransport` send
/// delay which stalls the sending rank. Used by the comm/compute-overlap
/// experiments to expose the latency-hiding the paper's asynchronous
/// exchange provides, even on hosts without real parallelism.
pub fn channel_cluster_with_latency(n: usize, latency: Duration) -> Vec<Box<dyn Transport>> {
    let mut txs = Vec::with_capacity(n);
    let mut rxs = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(rx);
    }
    rxs.into_iter()
        .enumerate()
        .map(|(rank, rx)| {
            Box::new(ChannelTransport {
                rank,
                n,
                tx: txs.clone(),
                rx,
                staged: None,
                closed: false,
                latency,
                metrics: TransportMetrics::default(),
            }) as Box<dyn Transport>
        })
        .collect()
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn n_ranks(&self) -> usize {
        self.n
    }

    fn backend(&self) -> &'static str {
        "channel"
    }

    fn send(
        &mut self,
        peer: usize,
        level: u8,
        seq: u64,
        payload: &[f64],
    ) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        if peer == self.rank || peer >= self.n {
            return Err(bad_peer(peer));
        }
        self.metrics.msgs_sent += 1;
        self.metrics.doubles_sent += payload.len() as u64;
        let ready_at = if self.latency.is_zero() {
            None
        } else {
            Some(Instant::now() + self.latency)
        };
        self.tx[peer]
            .send(Wire::Halo {
                from: self.rank,
                level,
                seq,
                // lint: allow(hot-path-alloc) — ownership must cross the
                // channel; the ring/socket backends reuse slot buffers
                payload: payload.to_vec(),
                ready_at,
            })
            .map_err(|_| TransportError::Disconnected { peer })
    }

    fn recv_into_timeout(
        &mut self,
        buf: &mut Vec<f64>,
        timeout: Option<Duration>,
    ) -> Result<Recv, TransportError> {
        buf.clear();
        let wire = match self.staged.take() {
            Some(w) => w,
            None => match timeout {
                // lint: allow(lock-block) — the None deadline means block
                // by contract; the exchange loop passes a watchdog
                None => self.rx.recv().map_err(|_| TransportError::Closed)?,
                Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                    RecvTimeoutError::Timeout => TransportError::Timeout,
                    RecvTimeoutError::Disconnected => TransportError::Closed,
                })?,
            },
        };
        match wire {
            Wire::Halo {
                from,
                level,
                seq,
                payload,
                ready_at,
            } => {
                // link-latency maturation: pop order (per-sender FIFO) is
                // unaffected, the message just isn't visible until its
                // stamp — exactly an in-flight wire message
                if let Some(ready) = ready_at {
                    let now = Instant::now();
                    if ready > now {
                        std::thread::sleep(ready - now);
                    }
                }
                buf.extend_from_slice(&payload);
                Ok(Recv::Msg { from, level, seq })
            }
            Wire::Goodbye { from } => Ok(Recv::Goodbye { from }),
        }
    }

    fn try_recv_into(&mut self, buf: &mut Vec<f64>) -> Result<Option<Recv>, TransportError> {
        buf.clear();
        let wire = match self.staged.take() {
            Some(w) => w,
            // an empty *or* disconnected channel is "nothing ready now";
            // the blocking path reports closure properly
            None => match self.rx.try_recv() {
                Ok(w) => w,
                Err(_) => return Ok(None),
            },
        };
        // an immature shaped message is still in flight: park it (FIFO —
        // every receive path drains `staged` first) and report nothing
        if let Wire::Halo {
            ready_at: Some(ready),
            ..
        } = &wire
        {
            if *ready > Instant::now() {
                self.staged = Some(wire);
                return Ok(None);
            }
        }
        match wire {
            Wire::Halo {
                from,
                level,
                seq,
                payload,
                ..
            } => {
                buf.extend_from_slice(&payload);
                Ok(Some(Recv::Msg { from, level, seq }))
            }
            Wire::Goodbye { from } => Ok(Some(Recv::Goodbye { from })),
        }
    }

    fn metrics(&self) -> TransportMetrics {
        self.metrics
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for (peer, tx) in self.tx.iter().enumerate() {
            if peer != self.rank {
                // best effort: a peer that is itself gone no longer cares
                let _ = tx.send(Wire::Goodbye { from: self.rank });
            }
        }
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_and_goodbye_order() {
        let mut eps = channel_cluster(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, 3, 10, &[1.0, 2.0]).unwrap();
        a.send(1, 4, 11, &[-0.5]).unwrap();
        a.close();
        let mut buf = Vec::new();
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 3,
                seq: 10
            }
        );
        assert_eq!(buf, vec![1.0, 2.0]);
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 4,
                seq: 11
            }
        );
        assert_eq!(buf, vec![-0.5]);
        assert_eq!(b.recv_into(&mut buf).unwrap(), Recv::Goodbye { from: 0 });
    }

    #[test]
    fn link_latency_delays_delivery_but_not_the_sender() {
        let lat = Duration::from_millis(30);
        let mut eps = channel_cluster_with_latency(2, lat);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let posted = Instant::now();
        a.send(1, 0, 0, &[1.0]).unwrap();
        a.send(1, 1, 1, &[2.0]).unwrap();
        assert!(
            posted.elapsed() < lat,
            "sends must not block on the emulated wire"
        );
        let mut buf = Vec::new();
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 0,
                seq: 0
            }
        );
        assert!(posted.elapsed() >= lat, "message visible before maturation");
        // FIFO survives shaping, and an already-matured message is free
        assert_eq!(
            b.recv_into(&mut buf).unwrap(),
            Recv::Msg {
                from: 0,
                level: 1,
                seq: 1
            }
        );
        assert_eq!(buf, vec![2.0]);
    }

    #[test]
    fn timed_recv_times_out() {
        let mut eps = channel_cluster(2);
        let mut a = eps.remove(0);
        let mut buf = Vec::new();
        let r = a.recv_into_timeout(&mut buf, Some(Duration::from_millis(20)));
        assert_eq!(r, Err(TransportError::Timeout));
    }
}
