package service

import (
	"sync"
	"time"
)

// HoldFirstScheduleBuild holds s's first schedule build open until its
// schedule cache has counted waiters coalesced lookups, or for at most
// 10 s. Requests in flight beside the first one then coalesce onto its
// build whatever the machine's speed.
func HoldFirstScheduleBuild(s *Service, waiters uint64) {
	var once sync.Once
	s.scheduleBuildHook = func() {
		once.Do(func() {
			deadline := time.Now().Add(10 * time.Second)
			for s.schedules.Stats().Coalesced < waiters && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		})
	}
}
