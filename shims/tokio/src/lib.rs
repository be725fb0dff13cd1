//! Offline shim for `tokio`: a small thread-backed async runtime.
//!
//! Design, in one paragraph: every task (the `block_on` caller and each
//! `spawn`) runs on its own OS thread with a private poll loop. The loop
//! polls the task's future with a real waker that unparks the thread; if the
//! future is pending it parks for at most 250µs — less when a `time::sleep`
//! it waits on falls due sooner — and re-polls. Because of
//! that bounded park there is no reactor — I/O futures run over
//! `std::net` sockets in non-blocking mode and simply return `Pending` on
//! `WouldBlock`, relying on the timed re-poll. Cross-task events that can be
//! signalled precisely (task completion, watch-channel sends) wake the
//! registered waker immediately, so joins and shutdown propagate without
//! waiting out the park interval.
//!
//! Surface: `spawn`/`JoinHandle`, `task::JoinSet`, `sync::watch`,
//! `net::{TcpListener, TcpStream}` with `into_split`, `set_nodelay` and a
//! non-blocking `try_read`, buffered async I/O traits, `time::sleep`, a
//! 2-branch `select!`, `runtime::Builder`/`Runtime`, and the
//! `#[tokio::test]`/`#[tokio::main]` attribute re-exports. Exactly what this
//! workspace uses; nothing more.

use std::future::Future;

pub use tokio_macros::{main, test};

/// Runtime plumbing used by the attribute macros and `select!`. Public for
/// macro expansion; not a stable API.
pub mod macros_support {
    use std::cell::Cell;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::task::{Context, Poll, Wake, Waker};
    use std::time::{Duration, Instant};

    /// How long a task thread parks before re-polling a pending future.
    /// Bounds the latency of every I/O readiness check (there is no
    /// reactor), so it is kept small.
    pub(crate) const PARK_INTERVAL: Duration = Duration::from_micros(250);

    struct ThreadWaker {
        thread: std::thread::Thread,
        notified: AtomicBool,
    }

    impl Wake for ThreadWaker {
        fn wake(self: Arc<Self>) {
            self.notified.store(true, Ordering::SeqCst);
            self.thread.unpark();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.notified.store(true, Ordering::SeqCst);
            self.thread.unpark();
        }
    }

    thread_local! {
        /// The earliest timer deadline the future being polled on this
        /// thread is waiting for; cleared before every poll.
        static NEXT_TIMER: Cell<Option<Instant>> = const { Cell::new(None) };
    }

    /// Have the polling thread's next park end at `deadline` if that comes
    /// before the park interval does, so a timer fires when it is due and
    /// not at the re-poll after.
    pub(crate) fn park_until(deadline: Instant) {
        NEXT_TIMER.with(|next| {
            next.set(Some(next.get().map_or(deadline, |d| d.min(deadline))));
        });
    }

    /// Drive a future to completion on the current thread.
    pub fn block_on<F: Future>(fut: F) -> F::Output {
        let mut fut = std::pin::pin!(fut);
        let waker_state = Arc::new(ThreadWaker {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        });
        let waker = Waker::from(waker_state.clone());
        let mut cx = Context::from_waker(&waker);
        loop {
            NEXT_TIMER.with(|next| next.set(None));
            if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
                return v;
            }
            if !waker_state.notified.swap(false, Ordering::SeqCst) {
                let park = match NEXT_TIMER.with(|next| next.get()) {
                    Some(due) => PARK_INTERVAL.min(due.saturating_duration_since(Instant::now())),
                    None => PARK_INTERVAL,
                };
                std::thread::park_timeout(park);
                waker_state.notified.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Outcome of a 2-way select.
    pub enum Either2<A, B> {
        /// First branch completed.
        A(A),
        /// Second branch completed.
        B(B),
    }

    /// Future racing two futures, biased toward the first.
    pub struct Select2<F1, F2> {
        f1: F1,
        f2: F2,
    }

    /// Race `f1` against `f2`; the loser is dropped (cancelled).
    pub fn select2<F1: Future, F2: Future>(f1: F1, f2: F2) -> Select2<F1, F2> {
        Select2 { f1, f2 }
    }

    impl<F1: Future, F2: Future> Future for Select2<F1, F2> {
        type Output = Either2<F1::Output, F2::Output>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            // SAFETY: fields are pinned structurally; they are never moved
            // out of `self` after being pinned here.
            let this = unsafe { self.get_unchecked_mut() };
            if let Poll::Ready(v) = unsafe { Pin::new_unchecked(&mut this.f1) }.poll(cx) {
                return Poll::Ready(Either2::A(v));
            }
            if let Poll::Ready(v) = unsafe { Pin::new_unchecked(&mut this.f2) }.poll(cx) {
                return Poll::Ready(Either2::B(v));
            }
            Poll::Pending
        }
    }
}

/// Race two async operations, running the winning branch's body.
///
/// Supports the two-branch forms this workspace uses: block bodies without a
/// separating comma and expression bodies with one.
#[macro_export]
macro_rules! select {
    ($p1:pat = $f1:expr => $b1:block $p2:pat = $f2:expr => $b2:expr $(,)?) => {
        match $crate::macros_support::select2($f1, $f2).await {
            $crate::macros_support::Either2::A($p1) => $b1,
            $crate::macros_support::Either2::B($p2) => $b2,
        }
    };
    ($p1:pat = $f1:expr => $b1:expr, $p2:pat = $f2:expr => $b2:expr $(,)?) => {
        match $crate::macros_support::select2($f1, $f2).await {
            $crate::macros_support::Either2::A($p1) => $b1,
            $crate::macros_support::Either2::B($p2) => $b2,
        }
    };
}

/// Spawn a future onto its own thread; returns a handle that can be awaited.
pub fn spawn<F>(fut: F) -> task::JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    task::spawn_inner(fut)
}

pub mod task {
    //! Task handles and collections.

    use super::macros_support::block_on;
    use std::fmt;
    use std::future::Future;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::pin::Pin;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Waker};

    /// A spawned task failed (panicked).
    pub struct JoinError {
        msg: String,
    }

    impl fmt::Debug for JoinError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "JoinError({})", self.msg)
        }
    }

    impl fmt::Display for JoinError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "task failed: {}", self.msg)
        }
    }

    impl std::error::Error for JoinError {}

    struct TaskState<T> {
        result: Mutex<Option<Result<T, JoinError>>>,
        waker: Mutex<Option<Waker>>,
    }

    impl<T> TaskState<T> {
        /// Non-blocking completion check; takes the result if finished.
        fn try_take(&self) -> Option<Result<T, JoinError>> {
            self.result.lock().unwrap().take()
        }

        fn register(&self, waker: &Waker) {
            *self.waker.lock().unwrap() = Some(waker.clone());
        }
    }

    /// Handle to a spawned task; awaiting it yields the task's output.
    pub struct JoinHandle<T> {
        state: Arc<TaskState<T>>,
    }

    pub(crate) fn spawn_inner<F>(fut: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let state = Arc::new(TaskState {
            result: Mutex::new(None),
            waker: Mutex::new(None),
        });
        let task_state = state.clone();
        std::thread::Builder::new()
            .name("tokio-shim-task".into())
            .spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| block_on(fut)));
                let outcome = outcome.map_err(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "panic".to_string());
                    JoinError { msg }
                });
                *task_state.result.lock().unwrap() = Some(outcome);
                if let Some(w) = task_state.waker.lock().unwrap().take() {
                    w.wake();
                }
            })
            .expect("spawn task thread");
        JoinHandle { state }
    }

    impl<T> Future for JoinHandle<T> {
        type Output = Result<T, JoinError>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            // Register before checking so a completion between the check and
            // the park still wakes us.
            self.state.register(cx.waker());
            match self.state.try_take() {
                Some(result) => Poll::Ready(result),
                None => Poll::Pending,
            }
        }
    }

    /// A dynamic collection of spawned tasks, reaped as they finish.
    pub struct JoinSet<T> {
        tasks: Vec<JoinHandle<T>>,
    }

    impl<T: Send + 'static> JoinSet<T> {
        /// An empty set.
        #[allow(clippy::new_without_default)]
        pub fn new() -> Self {
            JoinSet { tasks: Vec::new() }
        }

        /// Number of tasks not yet reaped.
        pub fn len(&self) -> usize {
            self.tasks.len()
        }

        /// Whether the set is empty.
        pub fn is_empty(&self) -> bool {
            self.tasks.is_empty()
        }

        /// Spawn a task into the set.
        pub fn spawn<F>(&mut self, fut: F)
        where
            F: Future<Output = T> + Send + 'static,
        {
            self.tasks.push(spawn_inner(fut));
        }

        /// Reap one finished task without waiting.
        pub fn try_join_next(&mut self) -> Option<Result<T, JoinError>> {
            for i in 0..self.tasks.len() {
                if let Some(result) = self.tasks[i].state.try_take() {
                    self.tasks.swap_remove(i);
                    return Some(result);
                }
            }
            None
        }

        /// Wait for the next task to finish; `None` when the set is empty.
        pub async fn join_next(&mut self) -> Option<Result<T, JoinError>> {
            std::future::poll_fn(|cx| {
                if self.tasks.is_empty() {
                    return Poll::Ready(None);
                }
                for t in &self.tasks {
                    t.state.register(cx.waker());
                }
                match self.try_join_next() {
                    Some(result) => Poll::Ready(Some(result)),
                    None => Poll::Pending,
                }
            })
            .await
        }
    }
}

pub mod sync {
    //! Synchronization primitives.

    pub mod watch {
        //! A single-value broadcast channel: receivers observe the latest
        //! value and can await changes.

        use std::fmt;
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
        use std::sync::{Arc, Mutex};
        use std::task::{Poll, Waker};

        struct Shared<T> {
            value: Mutex<T>,
            version: AtomicU64,
            senders: AtomicUsize,
            wakers: Mutex<Vec<Waker>>,
        }

        impl<T> Shared<T> {
            fn wake_all(&self) {
                for w in self.wakers.lock().unwrap().drain(..) {
                    w.wake();
                }
            }
        }

        /// Sending half.
        pub struct Sender<T> {
            shared: Arc<Shared<T>>,
        }

        /// Receiving half; tracks which version it has seen.
        pub struct Receiver<T> {
            shared: Arc<Shared<T>>,
            last_seen: u64,
        }

        /// All senders dropped before a new value was observed.
        #[derive(Debug)]
        pub struct RecvError;

        impl fmt::Display for RecvError {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("watch channel closed")
            }
        }

        /// All receivers dropped.
        #[derive(Debug)]
        pub struct SendError<T>(pub T);

        /// Create a channel holding `init`; receivers start having seen it.
        pub fn channel<T>(init: T) -> (Sender<T>, Receiver<T>) {
            let shared = Arc::new(Shared {
                value: Mutex::new(init),
                version: AtomicU64::new(0),
                senders: AtomicUsize::new(1),
                wakers: Mutex::new(Vec::new()),
            });
            (
                Sender {
                    shared: shared.clone(),
                },
                Receiver {
                    shared,
                    last_seen: 0,
                },
            )
        }

        impl<T> Sender<T> {
            /// Publish a new value, waking waiting receivers. The shim never
            /// reports closure (receiver side is not counted) — harmless for
            /// the workspace's fire-and-forget shutdown signalling.
            pub fn send(&self, value: T) -> Result<(), SendError<T>> {
                *self.shared.value.lock().unwrap() = value;
                self.shared.version.fetch_add(1, Ordering::SeqCst);
                self.shared.wake_all();
                Ok(())
            }
        }

        impl<T> Drop for Sender<T> {
            fn drop(&mut self) {
                self.shared.senders.fetch_sub(1, Ordering::SeqCst);
                self.shared.wake_all();
            }
        }

        impl<T> Clone for Receiver<T> {
            fn clone(&self) -> Self {
                Receiver {
                    shared: self.shared.clone(),
                    last_seen: self.last_seen,
                }
            }
        }

        impl<T: Clone> Receiver<T> {
            /// A copy of the latest value (marks it seen).
            pub fn borrow_and_update(&mut self) -> T {
                self.last_seen = self.shared.version.load(Ordering::SeqCst);
                self.shared.value.lock().unwrap().clone()
            }
        }

        impl<T> Receiver<T> {
            /// Wait until a value newer than the last seen one is published.
            pub async fn changed(&mut self) -> Result<(), RecvError> {
                std::future::poll_fn(|cx| {
                    let version = self.shared.version.load(Ordering::SeqCst);
                    if version != self.last_seen {
                        self.last_seen = version;
                        return Poll::Ready(Ok(()));
                    }
                    if self.shared.senders.load(Ordering::SeqCst) == 0 {
                        return Poll::Ready(Err(RecvError));
                    }
                    self.shared.wakers.lock().unwrap().push(cx.waker().clone());
                    Poll::Pending
                })
                .await
            }
        }
    }
}

pub mod time {
    //! Timers. A pending `sleep` cuts its task thread's park short at the
    //! deadline, so it fires when due (plus the OS timer's slack), not at the
    //! re-poll after.

    use std::future::Future;
    use std::task::Poll;
    use std::time::{Duration, Instant};

    /// Sleep for at least `duration`.
    pub async fn sleep(duration: Duration) {
        let deadline = Instant::now() + duration;
        std::future::poll_fn(|_cx| {
            if Instant::now() >= deadline {
                Poll::Ready(())
            } else {
                // No timer wheel: the task thread's next park is cut short
                // at the deadline.
                crate::macros_support::park_until(deadline);
                Poll::Pending
            }
        })
        .await
    }

    /// Error returned by [`timeout`] when the deadline elapses first.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Elapsed;

    impl std::fmt::Display for Elapsed {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "deadline has elapsed")
        }
    }

    impl std::error::Error for Elapsed {}

    /// Run `fut` for at most `duration`; the loser is dropped (cancelled).
    pub async fn timeout<F: Future>(duration: Duration, fut: F) -> Result<F::Output, Elapsed> {
        match crate::macros_support::select2(fut, sleep(duration)).await {
            crate::macros_support::Either2::A(v) => Ok(v),
            crate::macros_support::Either2::B(()) => Err(Elapsed),
        }
    }

    /// Errors from the `time` module (mirrors tokio's layout).
    pub mod error {
        pub use super::Elapsed;
    }
}

pub mod io {
    //! Async I/O traits over non-blocking `std` sockets.

    use std::io;
    use std::task::{Context, Poll};

    /// Byte-stream reads; `Pending` on `WouldBlock`.
    pub trait AsyncRead {
        /// Attempt to read into `buf`.
        fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>>;
    }

    /// Byte-stream writes; `Pending` on `WouldBlock`.
    pub trait AsyncWrite {
        /// Attempt to write from `buf`.
        fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>>;
        /// Attempt to flush buffered data.
        fn poll_flush(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<()>>;
    }

    /// Convenience read methods, mirroring tokio's extension trait.
    pub trait AsyncReadExt: AsyncRead {
        /// Read some bytes into `buf`; 0 means EOF.
        fn read(&mut self, buf: &mut [u8]) -> impl std::future::Future<Output = io::Result<usize>>
        where
            Self: Sized,
        {
            std::future::poll_fn(move |cx| self.poll_read(cx, buf))
        }

        /// Fill `buf` completely or fail with `UnexpectedEof`.
        fn read_exact(
            &mut self,
            buf: &mut [u8],
        ) -> impl std::future::Future<Output = io::Result<usize>>
        where
            Self: Sized,
        {
            async move {
                let mut filled = 0;
                while filled < buf.len() {
                    let n =
                        std::future::poll_fn(|cx| self.poll_read(cx, &mut buf[filled..])).await?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "early eof in read_exact",
                        ));
                    }
                    filled += n;
                }
                Ok(filled)
            }
        }

        /// Read until EOF, appending to `out`.
        fn read_to_end(
            &mut self,
            out: &mut Vec<u8>,
        ) -> impl std::future::Future<Output = io::Result<usize>>
        where
            Self: Sized,
        {
            async move {
                let mut total = 0;
                let mut chunk = [0u8; 4096];
                loop {
                    let n = std::future::poll_fn(|cx| self.poll_read(cx, &mut chunk)).await?;
                    if n == 0 {
                        return Ok(total);
                    }
                    out.extend_from_slice(&chunk[..n]);
                    total += n;
                }
            }
        }
    }

    impl<T: AsyncRead> AsyncReadExt for T {}

    /// Convenience write methods, mirroring tokio's extension trait.
    pub trait AsyncWriteExt: AsyncWrite {
        /// Write all of `buf`.
        fn write_all(&mut self, buf: &[u8]) -> impl std::future::Future<Output = io::Result<()>>
        where
            Self: Sized,
        {
            async move {
                let mut written = 0;
                while written < buf.len() {
                    let n = std::future::poll_fn(|cx| self.poll_write(cx, &buf[written..])).await?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "write returned 0 bytes",
                        ));
                    }
                    written += n;
                }
                Ok(())
            }
        }

        /// Flush the stream.
        fn flush(&mut self) -> impl std::future::Future<Output = io::Result<()>>
        where
            Self: Sized,
        {
            std::future::poll_fn(move |cx| self.poll_flush(cx))
        }
    }

    impl<T: AsyncWrite> AsyncWriteExt for T {}

    /// Buffered reader over an [`AsyncRead`].
    pub struct BufReader<R> {
        inner: R,
        buf: Vec<u8>,
        pos: usize,
    }

    impl<R: AsyncRead> BufReader<R> {
        /// Wrap `inner` with an 8 KiB buffer.
        pub fn new(inner: R) -> Self {
            BufReader {
                inner,
                buf: Vec::new(),
                pos: 0,
            }
        }

        /// The wrapped reader.
        pub fn get_ref(&self) -> &R {
            &self.inner
        }

        /// Bytes read from the wrapped reader and not yet consumed.
        pub fn buffer(&self) -> &[u8] {
            &self.buf[self.pos..]
        }

        /// Refill the internal buffer if empty; Ready(0) means EOF.
        fn poll_fill(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<usize>> {
            if self.pos < self.buf.len() {
                return Poll::Ready(Ok(self.buf.len() - self.pos));
            }
            self.buf.resize(8192, 0);
            self.pos = 0;
            match self.inner.poll_read(cx, &mut self.buf) {
                Poll::Ready(Ok(n)) => {
                    self.buf.truncate(n);
                    Poll::Ready(Ok(n))
                }
                Poll::Ready(Err(e)) => {
                    self.buf.clear();
                    Poll::Ready(Err(e))
                }
                Poll::Pending => {
                    self.buf.clear();
                    Poll::Pending
                }
            }
        }
    }

    impl<R: AsyncRead> AsyncRead for BufReader<R> {
        fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
            match self.poll_fill(cx) {
                Poll::Ready(Ok(0)) => Poll::Ready(Ok(0)),
                Poll::Ready(Ok(_)) => {
                    let available = self.buffer();
                    let n = available.len().min(buf.len());
                    buf[..n].copy_from_slice(&available[..n]);
                    self.pos += n;
                    Poll::Ready(Ok(n))
                }
                Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
                Poll::Pending => Poll::Pending,
            }
        }
    }

    /// Line-oriented reads over a buffered reader.
    pub trait AsyncBufReadExt {
        /// Append one `\n`-terminated line (newline included) to `dst`;
        /// returns bytes read, 0 at EOF.
        fn read_line(
            &mut self,
            dst: &mut String,
        ) -> impl std::future::Future<Output = io::Result<usize>>;
    }

    impl<R: AsyncRead> AsyncBufReadExt for BufReader<R> {
        async fn read_line(&mut self, dst: &mut String) -> io::Result<usize> {
            {
                let mut collected = Vec::new();
                loop {
                    let available = std::future::poll_fn(|cx| self.poll_fill(cx)).await?;
                    if available == 0 {
                        break; // EOF
                    }
                    let buffered = self.buffer();
                    if let Some(idx) = buffered.iter().position(|&b| b == b'\n') {
                        collected.extend_from_slice(&buffered[..=idx]);
                        self.pos += idx + 1;
                        break;
                    }
                    let take = buffered.len();
                    collected.extend_from_slice(buffered);
                    self.pos += take;
                }
                let n = collected.len();
                let text = String::from_utf8(collected).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )
                })?;
                dst.push_str(&text);
                Ok(n)
            }
        }
    }
}

pub mod net {
    //! Non-blocking TCP over `std::net`.

    use super::io::{AsyncRead, AsyncWrite};
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, ToSocketAddrs};
    use std::sync::Arc;
    use std::task::{Context, Poll};

    fn nonblocking_io<T>(result: io::Result<T>) -> Poll<io::Result<T>> {
        match result {
            Ok(v) => Poll::Ready(Ok(v)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Poll::Pending,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Poll::Pending,
            Err(e) => Poll::Ready(Err(e)),
        }
    }

    /// A TCP listener accepting non-blocking streams.
    pub struct TcpListener {
        inner: std::net::TcpListener,
    }

    impl TcpListener {
        /// Bind to `addr` (port 0 picks an ephemeral port).
        pub async fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
            let inner = std::net::TcpListener::bind(addr)?;
            inner.set_nonblocking(true)?;
            Ok(TcpListener { inner })
        }

        /// The bound address.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.inner.local_addr()
        }

        /// Wait for an inbound connection.
        pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
            std::future::poll_fn(|_cx| {
                nonblocking_io(self.inner.accept()).map(|r| {
                    r.and_then(|(stream, peer)| {
                        stream.set_nonblocking(true)?;
                        Ok((TcpStream::new(stream), peer))
                    })
                })
            })
            .await
        }
    }

    /// A non-blocking TCP stream.
    pub struct TcpStream {
        inner: Arc<std::net::TcpStream>,
    }

    impl TcpStream {
        fn new(inner: std::net::TcpStream) -> Self {
            TcpStream {
                inner: Arc::new(inner),
            }
        }

        /// Connect to `addr`. The connect itself is synchronous (loopback
        /// peers in this workspace accept instantly); the resulting stream
        /// is non-blocking.
        pub async fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
            let stream = std::net::TcpStream::connect(addr)?;
            stream.set_nonblocking(true)?;
            Ok(TcpStream::new(stream))
        }

        /// The peer address.
        pub fn peer_addr(&self) -> io::Result<SocketAddr> {
            self.inner.peer_addr()
        }

        /// Set `TCP_NODELAY`: with it on, a small write leaves at once
        /// instead of waiting for the peer to acknowledge the previous one.
        pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
            self.inner.set_nodelay(nodelay)
        }

        /// Whether `TCP_NODELAY` is set.
        pub fn nodelay(&self) -> io::Result<bool> {
            self.inner.nodelay()
        }

        /// Split into independently usable read and write halves.
        pub fn into_split(self) -> (tcp::OwnedReadHalf, tcp::OwnedWriteHalf) {
            (
                tcp::OwnedReadHalf {
                    inner: self.inner.clone(),
                },
                tcp::OwnedWriteHalf { inner: self.inner },
            )
        }
    }

    impl AsyncRead for TcpStream {
        fn poll_read(&mut self, _cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
            nonblocking_io((&*self.inner).read(buf))
        }
    }

    impl AsyncWrite for TcpStream {
        fn poll_write(&mut self, _cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
            nonblocking_io((&*self.inner).write(buf))
        }

        fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
            nonblocking_io((&*self.inner).flush())
        }
    }

    pub mod tcp {
        //! Owned halves of a split [`super::TcpStream`].

        use super::*;

        /// Read half; shares the socket with the write half.
        pub struct OwnedReadHalf {
            pub(super) inner: Arc<std::net::TcpStream>,
        }

        /// Write half; the socket closes when both halves are dropped.
        pub struct OwnedWriteHalf {
            pub(super) inner: Arc<std::net::TcpStream>,
        }

        impl OwnedReadHalf {
            /// Read what the socket holds right now without waiting:
            /// `WouldBlock` when nothing has arrived, `Ok(0)` at EOF.
            pub fn try_read(&self, buf: &mut [u8]) -> io::Result<usize> {
                (&*self.inner).read(buf)
            }
        }

        impl AsyncRead for OwnedReadHalf {
            fn poll_read(
                &mut self,
                _cx: &mut Context<'_>,
                buf: &mut [u8],
            ) -> Poll<io::Result<usize>> {
                nonblocking_io((&*self.inner).read(buf))
            }
        }

        impl AsyncWrite for OwnedWriteHalf {
            fn poll_write(&mut self, _cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
                nonblocking_io((&*self.inner).write(buf))
            }

            fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
                nonblocking_io((&*self.inner).flush())
            }
        }
    }
}

pub mod runtime {
    //! Runtime construction. The shim has exactly one runtime behaviour —
    //! builders exist so call sites written against real tokio compile.

    use std::future::Future;
    use std::io;

    /// Builder mirroring `tokio::runtime::Builder`.
    pub struct Builder {
        _private: (),
    }

    impl Builder {
        /// Multi-thread flavor (the shim spawns a thread per task anyway).
        pub fn new_multi_thread() -> Builder {
            Builder { _private: () }
        }

        /// Current-thread flavor.
        pub fn new_current_thread() -> Builder {
            Builder { _private: () }
        }

        /// Accepted and ignored: the shim is always thread-per-task.
        pub fn worker_threads(&mut self, _n: usize) -> &mut Builder {
            self
        }

        /// Accepted and ignored: all drivers are always available.
        pub fn enable_all(&mut self) -> &mut Builder {
            self
        }

        /// Build a runtime handle.
        pub fn build(&mut self) -> io::Result<Runtime> {
            Ok(Runtime { _private: () })
        }
    }

    /// Handle that can drive futures to completion.
    pub struct Runtime {
        _private: (),
    }

    impl Runtime {
        /// A default runtime.
        pub fn new() -> io::Result<Runtime> {
            Builder::new_multi_thread().build()
        }

        /// Run `fut` to completion on the calling thread.
        pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
            super::macros_support::block_on(fut)
        }
    }
}

pub use task::JoinHandle;

/// Drive a future to completion on the current thread (outside any runtime).
pub fn block_in_place<F: Future>(fut: F) -> F::Output {
    macros_support::block_on(fut)
}

#[cfg(test)]
mod tests {
    use super::io::{AsyncBufReadExt, AsyncReadExt, AsyncWriteExt, BufReader};
    use super::macros_support::block_on;
    use super::sync::watch;
    use super::task::JoinSet;
    use std::time::{Duration, Instant};

    #[test]
    fn spawn_and_join() {
        let out = block_on(async {
            let h = super::spawn(async { 21 * 2 });
            h.await.unwrap()
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn join_error_on_panic() {
        let result = block_on(async { super::spawn(async { panic!("boom") }).await });
        assert!(result.is_err());
    }

    #[test]
    fn sleep_is_roughly_right() {
        let start = Instant::now();
        block_on(super::time::sleep(Duration::from_millis(20)));
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(20));
        assert!(elapsed < Duration::from_millis(500));
    }

    #[test]
    fn a_short_sleep_does_not_wait_out_the_park_interval() {
        let short = Duration::from_micros(50);
        let mut slept: Vec<Duration> = (0..21)
            .map(|_| {
                let start = Instant::now();
                block_on(super::time::sleep(short));
                start.elapsed()
            })
            .collect();
        slept.sort();
        assert!(slept[0] >= short, "woke early: {slept:?}");
        // The median, so that a descheduled thread cannot fail it.
        assert!(
            slept[slept.len() / 2] < super::macros_support::PARK_INTERVAL,
            "{slept:?}"
        );
    }

    #[test]
    fn watch_signals_change() {
        block_on(async {
            let (tx, mut rx) = watch::channel(false);
            let h = super::spawn(async move {
                rx.changed().await.unwrap();
                true
            });
            super::time::sleep(Duration::from_millis(5)).await;
            tx.send(true).unwrap();
            assert!(h.await.unwrap());
        });
    }

    #[test]
    fn select_prefers_ready_branch() {
        block_on(async {
            let quick = async { 1u32 };
            let slow = async {
                super::time::sleep(Duration::from_secs(5)).await;
                2u32
            };
            let n = select! {
                v = quick => v,
                _ = slow => 0,
            };
            assert_eq!(n, 1);
        });
    }

    #[test]
    fn join_set_drains() {
        block_on(async {
            let mut set = JoinSet::new();
            for i in 0..8u64 {
                set.spawn(async move { i });
            }
            let mut total = 0;
            while let Some(v) = set.join_next().await {
                total += v.unwrap();
            }
            assert_eq!(total, 28);
        });
    }

    #[test]
    fn tcp_round_trip_with_bufreader() {
        block_on(async {
            let listener = super::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let server = super::spawn(async move {
                let (stream, _) = listener.accept().await.unwrap();
                let (read, mut write) = stream.into_split();
                let mut reader = BufReader::new(read);
                let mut line = String::new();
                reader.read_line(&mut line).await.unwrap();
                write.write_all(b"pong\nrest").await.unwrap();
                write.flush().await.unwrap();
                line
            });
            let mut client = super::net::TcpStream::connect(addr).await.unwrap();
            client.write_all(b"ping\n").await.unwrap();
            let (read, _write) = client.into_split();
            let mut reader = BufReader::new(read);
            let mut line = String::new();
            reader.read_line(&mut line).await.unwrap();
            assert_eq!(line, "pong\n");
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).await.unwrap();
            assert_eq!(rest, b"rest");
            assert_eq!(server.await.unwrap(), "ping\n");
        });
    }

    #[test]
    fn nodelay_sets_on_accepted_and_connected_streams() {
        block_on(async {
            let listener = super::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let connected = super::net::TcpStream::connect(listener.local_addr().unwrap())
                .await
                .unwrap();
            let (accepted, _) = listener.accept().await.unwrap();
            for stream in [&accepted, &connected] {
                assert!(!stream.nodelay().unwrap(), "off until asked for");
                stream.set_nodelay(true).unwrap();
                assert!(stream.nodelay().unwrap());
            }
        });
    }

    #[test]
    fn try_read_tells_idle_from_data_from_eof() {
        block_on(async {
            let listener = super::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let client = super::net::TcpStream::connect(listener.local_addr().unwrap())
                .await
                .unwrap();
            let (mut server, _) = listener.accept().await.unwrap();
            let (read, _write) = client.into_split();
            let reader = BufReader::new(read);
            let mut byte = [0u8; 1];

            let idle = reader.get_ref().try_read(&mut byte).unwrap_err();
            assert_eq!(idle.kind(), std::io::ErrorKind::WouldBlock);

            server.write_all(b"x").await.unwrap();
            let arrived = Instant::now();
            while reader.get_ref().try_read(&mut byte).is_err() {
                assert!(
                    arrived.elapsed() < Duration::from_secs(5),
                    "byte never arrived"
                );
                super::time::sleep(Duration::from_millis(1)).await;
            }
            assert_eq!(&byte, b"x");
            assert!(reader.buffer().is_empty(), "try_read bypasses the buffer");

            drop(server);
            let closed = Instant::now();
            while reader.get_ref().try_read(&mut byte).is_err() {
                assert!(
                    closed.elapsed() < Duration::from_secs(5),
                    "EOF never arrived"
                );
                super::time::sleep(Duration::from_millis(1)).await;
            }
            assert_eq!(reader.get_ref().try_read(&mut byte).unwrap(), 0);
        });
    }

    #[test]
    fn read_exact_across_chunks() {
        block_on(async {
            let listener = super::net::TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let writer = super::spawn(async move {
                let (stream, _) = listener.accept().await.unwrap();
                let (_r, mut w) = stream.into_split();
                for chunk in [b"ab".as_slice(), b"cd", b"ef"] {
                    w.write_all(chunk).await.unwrap();
                    super::time::sleep(Duration::from_millis(2)).await;
                }
            });
            let client = super::net::TcpStream::connect(addr).await.unwrap();
            let (read, _w) = client.into_split();
            let mut reader = BufReader::new(read);
            let mut buf = [0u8; 6];
            reader.read_exact(&mut buf).await.unwrap();
            assert_eq!(&buf, b"abcdef");
            writer.await.unwrap();
        });
    }
}
