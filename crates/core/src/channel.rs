//! A bounded, blocking MPSC channel that counts its own load.
//!
//! Shard workers and query readers take jobs from these channels. A
//! sender waits for space when the queue is full, so nothing is ever
//! dropped: a block lost for one worker would leave its epoch
//! incomplete forever. The channel records its peak depth and how many
//! jobs it accepted, so a slow consumer shows up in the pool's
//! [`ChannelStats`] instead of as an unexplained stall.
//!
//! Built on `Mutex` + `Condvar` only, so the core crate stays free of
//! external dependencies.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Monotonic counters a channel keeps about its own load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Peak queue depth ever observed.
    pub max_depth: usize,
    /// Messages successfully enqueued.
    pub enqueued: u64,
}

struct State<T> {
    queue: VecDeque<T>,
    /// Receiver gone.
    closed_rx: bool,
    /// All senders gone.
    closed_tx: bool,
    max_depth: usize,
    enqueued: u64,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    senders: AtomicU64,
}

impl<T> Inner<T> {
    fn stats(&self) -> ChannelStats {
        let st = self.state.lock().unwrap();
        ChannelStats {
            max_depth: st.max_depth,
            enqueued: st.enqueued,
        }
    }
}

/// Sending half; clonable.
pub struct PolicySender<T> {
    inner: Arc<Inner<T>>,
}

/// Receiving half (single consumer).
pub struct PolicyReceiver<T> {
    inner: Arc<Inner<T>>,
}

/// Error returned when the other side is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disconnected;

/// `recv_timeout` failure reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

/// Creates a channel holding at most `capacity` queued messages.
pub fn policy_channel<T>(capacity: usize) -> (PolicySender<T>, PolicyReceiver<T>) {
    let capacity = capacity.max(1);
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity.min(1024)),
            closed_rx: false,
            closed_tx: false,
            max_depth: 0,
            enqueued: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
        senders: AtomicU64::new(1),
    });
    (
        PolicySender {
            inner: inner.clone(),
        },
        PolicyReceiver { inner },
    )
}

impl<T> PolicySender<T> {
    /// Enqueues `value`, waiting for space while the queue is full.
    /// Returns `Err(Disconnected)` only when the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), Disconnected> {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap();
        loop {
            if st.closed_rx {
                return Err(Disconnected);
            }
            if st.queue.len() < inner.capacity {
                st.queue.push_back(value);
                st.enqueued += 1;
                st.max_depth = st.max_depth.max(st.queue.len());
                inner.not_empty.notify_one();
                return Ok(());
            }
            st = inner.not_full.wait(st).unwrap();
        }
    }

    /// A stats-only handle that does **not** keep the channel open: it
    /// does not count as a sender, so dropping every real sender still
    /// closes the channel (the drain signal) while the probe can keep
    /// reporting counters.
    pub fn probe(&self) -> ChannelProbe<T> {
        ChannelProbe {
            inner: self.inner.clone(),
        }
    }
}

/// Observer handle returned by [`PolicySender::probe`].
pub struct ChannelProbe<T> {
    inner: Arc<Inner<T>>,
}

impl<T> ChannelProbe<T> {
    pub fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    pub fn depth(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }
}

impl<T> Clone for PolicySender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::Relaxed);
        PolicySender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for PolicySender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut st = self.inner.state.lock().unwrap();
            st.closed_tx = true;
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> PolicyReceiver<T> {
    /// Blocks until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, Disconnected> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if st.closed_tx {
                return Err(Disconnected);
            }
            st = self.inner.not_empty.wait(st).unwrap();
        }
    }

    /// Blocks up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if st.closed_tx {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (next, timed_out) = self
                .inner
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap();
            st = next;
            if timed_out.timed_out() && st.queue.is_empty() {
                if st.closed_tx {
                    return Err(RecvTimeoutError::Disconnected);
                }
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Non-blocking receive; `None` when empty (even if disconnected).
    pub fn try_recv(&self) -> Option<T> {
        let mut st = self.inner.state.lock().unwrap();
        let v = st.queue.pop_front();
        if v.is_some() {
            self.inner.not_full.notify_one();
        }
        v
    }

    /// The channel's load counters (receiver-side view).
    pub fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }
}

impl<T> Drop for PolicyReceiver<T> {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock().unwrap();
        st.closed_rx = true;
        // Unblock senders waiting for space.
        self.inner.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_policy_applies_backpressure() {
        let (tx, rx) = policy_channel::<u32>(2);
        assert_eq!(tx.send(1), Ok(()));
        assert_eq!(tx.send(2), Ok(()));
        // Third send must wait until the consumer drains one slot.
        let t = std::thread::spawn(move || tx.send(3));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(t.join().unwrap(), Ok(()));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
        let stats = rx.stats();
        assert_eq!(stats.max_depth, 2, "the queue never grew past its capacity");
        assert_eq!(stats.enqueued, 3, "nothing was dropped");
    }

    #[test]
    fn receiver_drop_unblocks_sender() {
        let (tx, rx) = policy_channel::<u32>(1);
        tx.send(0).unwrap();
        let t = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(Duration::from_millis(30));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(Disconnected));
    }

    #[test]
    fn sender_drop_disconnects_receiver() {
        let (tx, rx) = policy_channel::<u32>(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn probe_does_not_keep_channel_open() {
        let (tx, rx) = policy_channel::<u32>(4);
        let probe = tx.probe();
        tx.send(5).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(5));
        // The probe must not count as a sender: the channel is closed.
        assert_eq!(rx.recv(), Err(Disconnected));
        assert_eq!(probe.stats().enqueued, 1);
        assert_eq!(probe.depth(), 0);
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = policy_channel::<u32>(4);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(20)), Ok(9));
    }
}
