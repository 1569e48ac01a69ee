package plus

import (
	"sync"
	"sync/atomic"
)

// notifier is the closed-channel broadcast behind Backend.Notify: the
// standard Go idiom for "wake every waiter at once, zero cost when
// nobody waits". Waiters grab the current channel; the next mutation
// closes it (waking all of them) and lazily replaces it. Arm-then-check
// ordering on the consumer side (grab the channel, THEN re-check the
// revision) makes missed wakeups impossible: a write that lands between
// the check and the select has already closed the grabbed channel.
//
// Both backends embed it; the /v2/changes long-poll consumes it instead
// of the 20ms polling loop it replaced, so an idle follower burns zero
// wakeups and a write is delivered at channel-close latency.
type notifier struct {
	mu sync.Mutex
	ch chan struct{}

	// wakeups counts broadcasts that actually woke waiters (a closed
	// channel); broadcasts with nobody parked are free and uncounted.
	// Observability reads it to report follower wakeup traffic.
	wakeups atomic.Uint64
}

// Notify returns a channel that is closed after the next mutation (or
// Close). Each call may return the same channel until a broadcast
// happens; callers must re-arm by calling Notify again after a wakeup.
func (n *notifier) Notify() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	return n.ch
}

// broadcast wakes every waiter. Cheap when nobody is waiting (nil
// channel, one mutex round-trip).
func (n *notifier) broadcast() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
		n.wakeups.Add(1)
	}
}

// Wakeups reports how many broadcasts found waiters to wake. Both
// backends inherit it (storeCore embeds notifier), giving the metrics
// layer a change-feed wakeup counter.
func (n *notifier) Wakeups() uint64 { return n.wakeups.Load() }
