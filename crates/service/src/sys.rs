//! Readiness polling over raw file descriptors: epoll on Linux, with a
//! portable `poll(2)` fallback for other unixes.
//!
//! This is the one module in the crate allowed to use `unsafe`: a
//! minimal `extern "C"` shim over the libc already linked by `std` (the
//! workspace builds with zero external crates, so there is no `libc`
//! crate to lean on). Everything above this module speaks the safe
//! [`Poller`] API: register/modify/deregister a fd with a `u64` token
//! and wait for readiness events.
//!
//! The shim stays deliberately tiny — three epoll calls plus `poll` and
//! `close` — and every call site checks `-1`/`errno` through
//! [`io::Error::last_os_error`]. No memory crosses the FFI boundary
//! except the event arrays, which are sized, initialized and owned on
//! the Rust side.

#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;

/// Readiness of one registered fd, reported by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or peer closed: reads will not block).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup; the owner should tear the connection down
    /// after draining whatever still reads.
    pub error: bool,
}

/// Interest set for a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readability.
    pub readable: bool,
    /// Wake on writability.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

mod ffi {
    use std::os::raw::c_int;

    // <sys/epoll.h>, Linux only.
    pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`; packed on x86-64, naturally aligned
    /// elsewhere (mirrors the kernel/glibc definition).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    // <poll.h>, POSIX.
    pub(super) const POLLIN: i16 = 0x001;
    pub(super) const POLLOUT: i16 = 0x004;
    pub(super) const POLLERR: i16 = 0x008;
    pub(super) const POLLHUP: i16 = 0x010;
    pub(super) const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        #[cfg(target_os = "linux")]
        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        #[cfg(target_os = "linux")]
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub(super) fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
        pub(super) fn close(fd: c_int) -> c_int;
    }
}

/// One registered fd in the `poll(2)` backend's registry.
#[derive(Debug, Clone, Copy)]
pub struct PollReg {
    /// The registered descriptor.
    fd: RawFd,
    /// Token reported with its events.
    token: u64,
    /// Current interest set.
    interest: Interest,
}

/// A readiness poller: epoll where available, `poll(2)` otherwise.
///
/// Not `Sync` by design — each reactor shard owns exactly one.
#[derive(Debug)]
pub enum Poller {
    /// Linux epoll instance (owned fd).
    #[cfg(target_os = "linux")]
    Epoll(RawFd),
    /// Portable fallback: an explicit fd registry handed to `poll(2)`
    /// on every wait. O(n) per wakeup, which is fine for the shard
    /// sizes a fallback host sees.
    Poll(Vec<PollReg>),
}

impl Poller {
    /// Creates a poller, preferring epoll on Linux.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` failure, if the kernel refuses an instance
    /// (the fallback registry itself cannot fail).
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller::Epoll(fd))
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Poller::Poll(Vec::new()))
        }
    }

    /// Creates the portable `poll(2)` backend explicitly (tests use
    /// this to exercise the fallback on Linux too).
    pub fn new_poll_fallback() -> Poller {
        Poller::Poll(Vec::new())
    }

    /// Registers `fd` with `token` and an interest set.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => epoll_ctl(*ep, ffi::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(regs) => {
                regs.push(PollReg {
                    fd,
                    token,
                    interest,
                });
                Ok(())
            }
        }
    }

    /// Updates the interest set of a registered fd.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure, or `NotFound` if the fd was
    /// never registered (fallback backend).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => epoll_ctl(*ep, ffi::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(regs) => {
                for r in regs.iter_mut() {
                    if r.fd == fd {
                        r.token = token;
                        r.interest = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Removes a registration. Must be called before the fd is closed.
    pub fn deregister(&mut self, fd: RawFd) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                let _ = epoll_ctl(*ep, ffi::EPOLL_CTL_DEL, fd, 0, Interest::READ);
            }
            Poller::Poll(regs) => regs.retain(|r| r.fd != fd),
        }
    }

    /// Waits up to `timeout_ms` for readiness, appending to `events`
    /// (which is cleared first). Returns the number of events.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_wait`/`poll` failure. `EINTR` is retried
    /// internally by returning zero events instead.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                const CAP: usize = 256;
                let mut raw = [ffi::EpollEvent { events: 0, data: 0 }; CAP];
                let n = unsafe { ffi::epoll_wait(*ep, raw.as_mut_ptr(), CAP as i32, timeout_ms) };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(e);
                }
                for ev in raw.iter().take(n as usize) {
                    let bits = ev.events;
                    events.push(Event {
                        token: ev.data,
                        readable: bits & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0,
                        writable: bits & ffi::EPOLLOUT != 0,
                        error: bits & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
                    });
                }
                Ok(events.len())
            }
            Poller::Poll(regs) => {
                let mut fds: Vec<ffi::PollFd> = regs
                    .iter()
                    .map(|r| ffi::PollFd {
                        fd: r.fd,
                        events: (if r.interest.readable { ffi::POLLIN } else { 0 })
                            | (if r.interest.writable { ffi::POLLOUT } else { 0 }),
                        revents: 0,
                    })
                    .collect();
                let n = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(e);
                }
                for (reg, pfd) in regs.iter().zip(&fds) {
                    if pfd.revents == 0 {
                        continue;
                    }
                    events.push(Event {
                        token: reg.token,
                        readable: pfd.revents & ffi::POLLIN != 0,
                        writable: pfd.revents & ffi::POLLOUT != 0,
                        error: pfd.revents & (ffi::POLLERR | ffi::POLLHUP | ffi::POLLNVAL) != 0,
                    });
                }
                Ok(events.len())
            }
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_ctl(
    ep: RawFd,
    op: std::os::raw::c_int,
    fd: RawFd,
    token: u64,
    i: Interest,
) -> io::Result<()> {
    let mut ev = ffi::EpollEvent {
        events: (if i.readable {
            ffi::EPOLLIN | ffi::EPOLLRDHUP
        } else {
            0
        }) | (if i.writable { ffi::EPOLLOUT } else { 0 }),
        data: token,
    };
    let rc = unsafe { ffi::epoll_ctl(ep, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Poller::Epoll(fd) = self {
            unsafe {
                ffi::close(*fd);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn exercise(mut poller: Poller) {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: a zero-timeout wait reports nothing.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        assert_eq!(poller.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Write interest on an idle socket fires immediately.
        poller
            .modify(
                b.as_raw_fd(),
                7,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        assert!(poller.wait(&mut events, 1000).unwrap() >= 1);
        assert!(events.iter().any(|e| e.writable));

        poller.deregister(b.as_raw_fd());
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn default_backend_reports_readiness() {
        exercise(Poller::new().unwrap());
    }

    #[test]
    fn poll_fallback_reports_readiness() {
        exercise(Poller::new_poll_fallback());
    }

    #[test]
    fn hangup_is_reported() {
        let mut poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, 1000).unwrap() >= 1);
        // Peer closed: either readable-EOF or hangup, both wake us.
        assert!(events[0].readable || events[0].error);
    }
}
