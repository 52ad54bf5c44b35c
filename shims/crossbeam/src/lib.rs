//! Offline stand-in for `crossbeam` (see `shims/README.md`).
//!
//! Only `channel::{unbounded, Sender, Receiver}` is provided, backed by
//! `std::sync::mpsc`. The semantics the runtime relies on hold: unbounded
//! FIFO per sender, `Sender: Clone + Send`, blocking `recv` (and
//! `recv_timeout`, which wakes on arrival) that errors once every sender is
//! dropped. Lock-free fast paths of real crossbeam are lost; message
//! ordering and delivery guarantees are not.

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    // derived Clone would require T: Clone; the channel handle never needs it
    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why [`Receiver::recv_timeout`] returned without a message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the timeout; senders are still alive.
        Timeout,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0
                .send(value)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, RecvError> {
            self.0.try_recv().map_err(|_| RecvError)
        }

        /// Block until a message arrives, every sender is dropped, or
        /// `timeout` passes — whichever comes first. The thread sleeps on
        /// the channel and wakes on arrival; nothing polls.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError};
    use std::time::{Duration, Instant};

    #[test]
    fn fifo_across_threads() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        std::thread::spawn(move || {
            for i in 0..100u32 {
                tx2.send(i).unwrap();
            }
        });
        drop(tx);
        let got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
        assert!(rx.recv().is_err(), "channel should report disconnect");
    }

    #[test]
    fn recv_timeout_times_out_on_an_empty_channel() {
        let (tx, rx) = unbounded::<u32>();
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(20), "returned early");
        drop(tx);
    }

    #[test]
    fn recv_timeout_returns_a_value_sent_while_waiting() {
        let (tx, rx) = unbounded();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(7u32).unwrap();
        });
        // the deadline is far away: only the arrival can end this wait
        assert_eq!(rx.recv_timeout(Duration::from_secs(60)), Ok(7));
        sender.join().unwrap();
    }

    #[test]
    fn recv_timeout_reports_disconnect_once_every_sender_is_gone() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx2);
        });
        // a message queued before the disconnect is still delivered
        assert_eq!(rx.recv_timeout(Duration::from_secs(60)), Ok(1));
        // the last sender goes away mid-wait: the waiter wakes, long
        // before its deadline
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(60)),
            Err(RecvTimeoutError::Disconnected)
        );
        dropper.join().unwrap();
    }
}
