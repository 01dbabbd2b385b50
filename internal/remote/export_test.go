package remote

// Addr returns the server address this cluster dials.
func (r *RemoteCluster) Addr() string { return r.pool.Addr() }

// NumRefs reports how many refs the cluster's pointer-to-ref map holds.
func (r *RemoteCluster) NumRefs() int {
	r.refMu.RLock()
	defer r.refMu.RUnlock()
	return len(r.refs)
}
