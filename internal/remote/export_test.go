package remote

// NumRefs reports how many refs the cluster's pointer-to-ref map holds.
func (r *RemoteCluster) NumRefs() int {
	r.refMu.RLock()
	defer r.refMu.RUnlock()
	return len(r.refs)
}
