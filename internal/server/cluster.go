// Cluster node endpoints: the server-side half of the taggate
// scatter-gather protocol.
//
//	GET  /cluster/rfd?resource=i&maphash=H   subject count vector export
//	POST /cluster/topk                       owned-only weighted top-k
//	GET  /cluster/search?tags=a,b&k=&maphash=H  owned-only search
//
// Every cluster request carries the gateway's shard-map hash and the
// node refuses (409) when it differs from its own: a gateway and a node
// booted from divergent shard maps would compute different ownership
// and silently return wrong partial rankings — the hash check turns
// that misconfiguration into a loud, immediate error. A node without
// cluster configuration only matches an empty hash: it serves the
// cluster surface as a single-node cluster, and any request carrying a
// real map hash is refused.
package server

import (
	"net/http"

	incentivetag "incentivetag"
)

// WeightedEntry is one (tag, count) pair of a wire query vector. Counts
// are exact integers; they and the accompanying norms are ≤ 2^53 in any
// realistic corpus, so they round-trip JSON float64 encoding exactly —
// which is what keeps distributed scores bit-identical.
type WeightedEntry struct {
	Tag   int32 `json:"t"`
	Count int64 `json:"c"`
}

// RFDResponse answers GET /cluster/rfd: the resource's live count
// vector in ascending tag order plus its exact squared norm, read under
// one epoch-consistent view.
type RFDResponse struct {
	Resource int             `json:"resource"`
	Epoch    uint64          `json:"epoch"`
	Norm2    float64         `json:"norm2"`
	Entries  []WeightedEntry `json:"entries"`
}

// ClusterTopKRequest asks this node to rank its owned resources against
// an explicit weighted query vector. Exclude is the subject's id (the
// owner node must not rank the subject against itself; every other node
// doesn't own it, so the exclusion is a no-op there). MapHash is the
// gateway's shard-map hash, checked against the node's own.
type ClusterTopKRequest struct {
	MapHash string          `json:"maphash"`
	Exclude int             `json:"exclude"`
	QNorm2  float64         `json:"qnorm2"`
	K       int             `json:"k"`
	Entries []WeightedEntry `json:"entries"`
}

// ClusterTopKResponse is this node's partial ranking: up to k owned
// resources under the (score desc, id asc) total order, zero-padded
// node-locally so the gateway's merge reproduces single-node padding.
type ClusterTopKResponse struct {
	Epoch uint64      `json:"epoch"`
	Top   []TopKEntry `json:"top"`
}

// checkMapHash enforces shard-map agreement between gateway and node;
// answers 409 and returns false on divergence.
func (s *Server) checkMapHash(w http.ResponseWriter, got string) bool {
	if got == s.cfg.ShardMapHash {
		return true
	}
	if s.cfg.ShardMapHash == "" {
		WriteError(w, http.StatusConflict,
			"node is not cluster-configured (no -cluster-map) but the request carries shard-map hash %q", got)
		return false
	}
	WriteError(w, http.StatusConflict,
		"shard-map mismatch: node has %q, request carries %q — gateway and node were booted from different maps", s.cfg.ShardMapHash, got)
	return false
}

func (s *Server) handleClusterRFD(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	q := r.URL.Query()
	if !s.checkMapHash(w, q.Get("maphash")) {
		return
	}
	resource, ok := ParseResource(w, q)
	if !ok {
		return
	}
	entries, norm2, epoch, err := svc.RFD(resource)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !svc.OwnsResource(resource) {
		// The gateway asked the wrong node for the subject vector: its
		// ring disagrees with ours despite the matching hash (should be
		// impossible) or the caller bypassed the gateway. Refuse rather
		// than serve a stale primed vector as if it were live.
		WriteError(w, http.StatusMisdirectedRequest, "resource %d is not owned by this node", resource)
		return
	}
	out := RFDResponse{Resource: resource, Epoch: epoch, Norm2: norm2, Entries: make([]WeightedEntry, len(entries))}
	for i, e := range entries {
		out.Entries[i] = WeightedEntry{Tag: int32(e.Tag), Count: e.Count}
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleClusterTopK(w http.ResponseWriter, r *http.Request) {
	svc := s.service(w)
	if svc == nil {
		return
	}
	var req ClusterTopKRequest
	if !s.ReadJSON(w, r, &req) {
		return
	}
	if !s.checkMapHash(w, req.MapHash) || !checkK(w, req.K) {
		return
	}
	query := make([]incentivetag.WeightedTag, len(req.Entries))
	for i, e := range req.Entries {
		query[i] = incentivetag.WeightedTag{Tag: incentivetag.Tag(e.Tag), Count: e.Count}
	}
	scored, epoch, err := svc.TopKWeighted(query, req.QNorm2, req.Exclude, req.K)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := ClusterTopKResponse{Epoch: epoch, Top: make([]TopKEntry, len(scored))}
	for i, sc := range scored {
		out.Top[i] = TopKEntry{Resource: sc.ID, Score: sc.Score}
	}
	WriteJSON(w, http.StatusOK, out)
}
