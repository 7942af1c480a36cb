//go:build linux

package emunet

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// arriveEarly is how long before an arrival its runtime timer fires. An idle
// process sleeps in epoll_wait in whole milliseconds, so a runtime timer fires
// up to about a millisecond late; the rest of the wait is on a kernel timer
// whose expiry wakes the netpoller at once.
const arriveEarly = time.Millisecond

// maxFreeTimerfds bounds the timerfds kept between waits: a wait that finds
// none free makes one (an epoll registration), and one handed back to a full
// list is closed. The benchmark's wan-sync workload (eight sites, 2 cores)
// had at most 15 to 20 waits under way at once in four runs of some 11 000
// waits each, and made that many timerfds; making and closing one per wait
// instead cost 19 % more CPU per message. The bound keeps that peak with room
// for a slower host.
const maxFreeTimerfds = 32

// freeTimerfds is the free list. It is not a sync.Pool, which drops what it
// holds at a collection and leaves the descriptors open until their
// finalizers run.
var freeTimerfds = make(chan *timerfd, maxFreeTimerfds)

// timerfd is a kernel timer read through the netpoller. fd is the file's
// descriptor, kept apart because File.Fd would make the file blocking.
type timerfd struct {
	f     *os.File
	fd    uintptr
	fired [8]byte // what a read of an expired timerfd returns
}

// afterArrival calls f in its own goroutine once at has come, within about
// 0.1 ms, and returns the runtime timer that starts the wait. As with
// time.AfterFunc, a Stop that returns false may still see f run, here up to
// arriveEarly after it: f must tell a stale call by its caller's own state.
func afterArrival(at time.Time, f func()) *time.Timer {
	return time.AfterFunc(time.Until(at)-arriveEarly, func() {
		sleepUntil(at)
		f()
	})
}

// sleepUntil parks its goroutine until at on a timerfd, read through the
// netpoller; without one it sleeps on the runtime timer instead.
func sleepUntil(at time.Time) {
	d := time.Until(at)
	if d <= 0 {
		return
	}
	tfd := takeTimerfd()
	for ; d > 0; d = time.Until(at) {
		if tfd == nil || !tfd.wait(d) {
			if tfd != nil {
				tfd.f.Close()
				tfd = nil
			}
			time.Sleep(d)
		}
	}
	if tfd != nil {
		select {
		case freeTimerfds <- tfd:
		default:
			tfd.f.Close()
		}
	}
}

// takeTimerfd returns a free timerfd, or a new one, or nil if the kernel
// makes none.
func takeTimerfd() *timerfd {
	select {
	case tfd := <-freeTimerfds:
		return tfd
	default:
	}
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	return &timerfd{f: os.NewFile(fd, "timerfd"), fd: fd}
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// wait arms t to expire once, d from now, and reads it, parking in the
// netpoller until it expires. It reports whether the wait worked.
func (t *timerfd) wait(d time.Duration) bool {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return false
	}
	_, err := t.f.Read(t.fired[:])
	return err == nil
}
