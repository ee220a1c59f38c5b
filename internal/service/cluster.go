package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"ilpec/internal/cluster"
	"ilpec/internal/domain"
	"ilpec/internal/store"
)

// This file is the service side of the multi-node tier (internal/cluster,
// cmd/ecrouter): lease-based session ownership, stale-owner fencing, and
// the fleet-wide solve-cache peek.
//
// Ownership protocol. In cluster mode (Options.Cluster set) a node must
// hold the session's lease before serving it:
//
//   - every lookup checks the cached lease; when it is near expiry the
//     lease is renewed (or re-acquired) through the shared store, and a
//     lookup of a session whose lease another node holds fails with
//     ErrNotOwner (HTTP 503 "not_owner" + Retry-After — the router
//     re-routes and the client retries);
//   - every journal append re-validates the lease first and renews it
//     when less than half the TTL remains ("renew on commit"), so an
//     actively written session's lease never lapses;
//   - rehydration acquires the lease BEFORE loading state, so two nodes
//     cannot both materialize the same session.
//
// Fencing. Clocks only make ownership fast, not safe; safety comes from
// the store's CAS append. If a stale owner appends after the new owner
// has, the append fails with store.ErrSeqConflict, the session is FENCED:
// marked closed and fenced, refused with ErrNotOwner, and dropped from
// the live map on the next lookup (its durable state now belongs to the
// new owner). A fenced session never writes another journal record or
// snapshot, so a split brain cannot double-commit — the differential
// chaos suite pins this.
//
// A transient store failure during a lease operation does NOT fence: the
// node keeps serving on its cached lease (during a total store outage no
// competitor can acquire the lease either, and the CAS backstop catches
// any real conflict). This keeps the PR-6 quarantine semantics intact in
// cluster mode.

// ErrNotOwner reports an operation on a session whose lease another node
// holds. The HTTP layer maps it to a retryable 503 so the client retries
// through the router, which routes to the current owner.
var ErrNotOwner = errors.New("service: session owned by another node")

// ErrSessionExists reports a create with an explicit id that is already
// in use.
var ErrSessionExists = errors.New("service: session id already exists")

// clustered reports whether this service runs as a cluster node.
func (s *Service) clustered() bool { return s.opts.Cluster != nil }

// ClusterNode returns the cluster node this service serves as (nil when
// not clustered).
func (s *Service) ClusterNode() *cluster.Node { return s.opts.Cluster }

// notOwnerErr builds the per-session ErrNotOwner.
func notOwnerErr(id, holder string) error {
	if holder == "" {
		return fmt.Errorf("%w: session %q", ErrNotOwner, id)
	}
	return fmt.Errorf("%w: session %q (holder %q)", ErrNotOwner, id, holder)
}

// leaseHolderOf extracts the competing holder from a cluster.HeldError.
func leaseHolderOf(err error) string {
	var held *cluster.HeldError
	if errors.As(err, &held) {
		return held.Holder
	}
	return ""
}

// ensureLeaseLocked proves this node may serve the session, renewing or
// re-acquiring the lease as needed. On a definitive loss the session is
// fenced and ErrNotOwner returned; on transient store trouble the node
// proceeds on its cached claim (see the file comment). Caller holds
// s.mu.
//
//ecvet:fenced
func (s *Session) ensureLeaseLocked() error {
	svc := s.svc
	if !svc.clustered() {
		return nil
	}
	if s.fenced.Load() {
		return notOwnerErr(s.id, "")
	}
	node := svc.opts.Cluster
	now := node.Now()
	ttl := node.LeaseTTL()
	remaining := s.lease.Expiry.Sub(now)
	if s.lease.Holder == node.ID() && remaining > ttl/2 {
		return nil
	}
	var (
		ls  cluster.Lease
		err error
	)
	if s.lease.Holder == node.ID() && remaining > 0 {
		// Renew on commit: still ours, but past the half-TTL mark.
		ls, err = node.Leases().Renew(s.lease, ttl, now)
		if err == nil {
			svc.metrics.ClusterLeaseRenewals.Add(1)
		}
	} else {
		ls, err = node.Leases().Acquire(s.id, node.ID(), ttl, now)
		if err == nil {
			svc.metrics.ClusterLeaseAcquired.Add(1)
		}
	}
	switch {
	case err == nil:
		s.lease = ls
		return nil
	case errors.Is(err, cluster.ErrLeaseHeld):
		s.fenceLocked()
		return notOwnerErr(s.id, leaseHolderOf(err))
	case errors.Is(err, cluster.ErrSessionDeleted):
		// The session was deleted cluster-wide while our lease lapsed. Our
		// in-memory copy is a ghost: fence it so nothing here is ever
		// persisted again (which would resurrect the deleted session).
		s.fenceLocked()
		return notOwnerErr(s.id, "")
	case store.IsTransient(err) && s.lease.Holder == node.ID() && remaining > 0:
		// Store hiccup mid-renewal with an unexpired claim: keep serving.
		// The CAS backstop fences us if ownership truly moved.
		return nil
	default:
		return err
	}
}

// fenceLocked marks the session as no longer ours: closed to all further
// operations and flagged so the next lookup drops it from the live map
// (the durable state belongs to the new owner; nothing here may be
// persisted again). Caller holds s.mu.
func (s *Session) fenceLocked() {
	if s.fenced.Swap(true) {
		return
	}
	s.closed = true
	s.inst = nil
	s.svc.metrics.ClusterFenced.Add(1)
}

// acquireForRehydrate claims the lease before a session is materialized
// from the store. Returns the lease to install on the rebuilt session.
func (s *Service) acquireForRehydrate(id string) (cluster.Lease, error) {
	node := s.opts.Cluster
	ls, err := node.Leases().Acquire(id, node.ID(), node.LeaseTTL(), node.Now())
	if err != nil {
		if errors.Is(err, cluster.ErrLeaseHeld) {
			s.metrics.ClusterNotOwner.Add(1)
			return cluster.Lease{}, notOwnerErr(id, leaseHolderOf(err))
		}
		return cluster.Lease{}, err
	}
	s.metrics.ClusterLeaseAcquired.Add(1)
	return ls, nil
}

// releaseLeaseLocked hands the session's lease back (drain, eviction,
// close) so a successor need not wait out the TTL. Best effort; a fenced
// session has nothing to release. Caller holds s.mu.
func (s *Session) releaseLeaseLocked() {
	svc := s.svc
	if !svc.clustered() || s.fenced.Load() {
		return
	}
	node := svc.opts.Cluster
	if s.lease.Holder != node.ID() {
		return
	}
	node.Leases().Release(s.lease) //nolint:errcheck // best effort; TTL expiry covers failure
	s.lease = cluster.Lease{}
}

// ---- fleet solve cache -----------------------------------------------------

// clusterPeek consults the fleet-wide solve cache for a task key. The
// returned solution is parsed and verified against the live problem, so
// a corrupt or colliding entry degrades to a miss, never a wrong answer.
func (s *Service) clusterPeek(d domain.Domain, problem any, key string) (any, bool) {
	if !s.clustered() {
		return nil, false
	}
	domName, raw, ok := s.opts.Cluster.Cache().Peek(key)
	if !ok || domName != d.Name() {
		s.metrics.ClusterPeekMisses.Add(1)
		return nil, false
	}
	sol, err := d.ParseSolution(problem, raw)
	if err != nil || d.Verify(problem, sol) != nil {
		s.metrics.ClusterPeekMisses.Add(1)
		return nil, false
	}
	s.metrics.ClusterPeekHits.Add(1)
	return sol, true
}

// clusterPublish shares a PROVEN solve result fleet-wide (mirrors the
// local cache's eligibility rule). Best effort.
func (s *Service) clusterPublish(d domain.Domain, problem any, key string, sol any) {
	if !s.clustered() {
		return
	}
	raw, err := json.Marshal(d.Render(problem, sol))
	if err != nil {
		return
	}
	if s.opts.Cluster.Cache().Put(key, d.Name(), raw) == nil {
		s.metrics.ClusterPeekStores.Add(1)
	}
}

// cachedSolveFleet is cachedSolve with the fleet cache layered under the
// in-process LRU: local hit → fleet peek → compute (and publish when the
// fresh result is proven). It counts SolverRuns: a local miss that no
// peer's published result answered. Caller holds s.mu.
func (s *Session) cachedSolveFleet(ctx context.Context, key string, problem any, compute func() (any, bool, error)) (any, bool, error) {
	peeked := false
	wrapped := compute
	if s.svc.clustered() {
		wrapped = func() (any, bool, error) {
			if sol, ok := s.svc.clusterPeek(s.dom, problem, key); ok {
				peeked = true
				return sol, true, nil
			}
			v, ok, err := compute()
			if err == nil && ok {
				s.svc.clusterPublish(s.dom, problem, key, v)
			}
			return v, ok, err
		}
	}
	val, hit, err := s.svc.cachedSolve(ctx, key, s.dom.CloneSolution, wrapped)
	if err == nil && !hit {
		if peeked {
			// The miss was served by a peer's published result, not a
			// local branch-and-bound run.
			hit = true
		} else {
			s.svc.metrics.SolverRuns.Add(1)
		}
	}
	return val, hit, err
}

// ---- readiness -------------------------------------------------------------

// StartDraining flips the service into drain mode: /readyz answers 503
// so routers stop sending new work, while in-flight and follow-up
// requests on existing connections still succeed until Close. cmd/ecserve
// calls it at the start of graceful shutdown.
func (s *Service) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining was called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Ready implements the readiness half of the health split: liveness
// (/healthz) says the process answers, readiness says it should receive
// NEW work. Not ready while draining, closed, partitioned from the
// cluster (heartbeat failing), or while any session sits in store
// quarantine — a router should prefer nodes whose durability is intact.
// The reason names the first failing gate for operators.
func (s *Service) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return false, "closed"
	}
	if s.clustered() && !s.opts.Cluster.Ready() {
		return false, "cluster_heartbeat_lost"
	}
	if len(s.DegradedSessions()) > 0 {
		return false, "store_quarantine"
	}
	return true, ""
}
