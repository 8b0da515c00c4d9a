"""Tests for the File Service: FileSystemContext through the name space.

The interesting property (section 4.3/4.6): resolution of names under
``files/<server>/...`` crosses from the name service into a context
implemented by *another* service, transparently to the client.
"""

import pytest

from repro.cluster import build_full_cluster
from repro.core.naming.errors import AlreadyBound, NameNotFound, NotAContext


@pytest.fixture(scope="module")
def cluster():
    return build_full_cluster(n_servers=3, seed=81)


@pytest.fixture(scope="module")
def client(cluster):
    return cluster.client_on(cluster.servers[0], name="fs-client")


def my_files(cluster):
    """Path to the file service on server 0 (sameserver member name)."""
    return f"files/{cluster.servers[0].ip}"


class TestResolutionHandoff:
    def test_resolve_file_through_name_service(self, cluster, client):
        ref = cluster.run_async(
            client.names.resolve(f"{my_files(cluster)}/etc/motd"))
        assert ref.type_id == "File"

    def test_resolve_directory_gives_fs_context(self, cluster, client):
        ref = cluster.run_async(client.names.resolve(f"{my_files(cluster)}/etc"))
        assert ref.type_id == "FileSystemContext"

    def test_sameserver_selector_picks_local_fileservice(self, cluster):
        local = cluster.client_on(cluster.servers[1], name="fs-local")
        ref = cluster.run_async(local.names.resolve("files"))
        assert ref.ip == cluster.servers[1].ip

    def test_missing_file_raises_through_handoff(self, cluster, client):
        with pytest.raises(NameNotFound):
            cluster.run_async(
                client.names.resolve(f"{my_files(cluster)}/no/such/file"))

    def test_list_directory_via_context_object(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        listing = cluster.run_async(client.runtime.invoke(ctx, "list", ("",)))
        names = [n for n, _k, _r in listing]
        assert "etc" in names and "content" in names


class TestFileOperations:
    def test_create_read_stat(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        file_ref = cluster.run_async(client.runtime.invoke(
            ctx, "createFile", ("tmp/report.txt", 1234)))
        blob = cluster.run_async(client.runtime.invoke(file_ref, "read", ()))
        assert blob.size == 1234
        stat = cluster.run_async(client.runtime.invoke(file_ref, "stat", ()))
        assert stat["size"] == 1234

    def test_create_duplicate_rejected(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        cluster.run_async(client.runtime.invoke(ctx, "createFile",
                                                ("tmp/dup.txt", 10)))
        with pytest.raises(AlreadyBound):
            cluster.run_async(client.runtime.invoke(ctx, "createFile",
                                                    ("tmp/dup.txt", 10)))

    def test_write_updates_size(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        ref = cluster.run_async(client.runtime.invoke(
            ctx, "createFile", ("tmp/grow.txt", 10)))
        cluster.run_async(client.runtime.invoke(ref, "write", (999,)))
        blob = cluster.run_async(client.runtime.invoke(ref, "read", ()))
        assert blob.size == 999

    def test_remove_file(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        cluster.run_async(client.runtime.invoke(ctx, "createFile",
                                                ("tmp/rm.txt", 10)))
        cluster.run_async(client.runtime.invoke(ctx, "removeFile",
                                                ("tmp/rm.txt",)))
        with pytest.raises(NameNotFound):
            cluster.run_async(
                client.names.resolve(f"{my_files(cluster)}/tmp/rm.txt"))

    def test_mkdir_via_bind_new_context(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        cluster.run_async(client.runtime.invoke(ctx, "bindNewContext",
                                                ("newdir",)))
        ref = cluster.run_async(
            client.names.resolve(f"{my_files(cluster)}/newdir"))
        assert ref.type_id == "FileSystemContext"

    def test_bind_arbitrary_object_rejected(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        with pytest.raises(NotAContext):
            cluster.run_async(client.runtime.invoke(ctx, "bind", ("x", ctx)))


class TestUpdateDelegation:
    """Updates through the name service that cross into ``files/<server>``
    are handed to the file service's context, not applied to the tree."""

    def test_bind_new_context_makes_a_directory(self, cluster, client):
        path = f"{my_files(cluster)}/viadns"
        cluster.run_async(client.names.bind_new_context(path))
        ref = cluster.run_async(client.names.resolve(path))
        assert ref.type_id == "FileSystemContext"

    def test_unbind_removes_a_file(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        cluster.run_async(client.runtime.invoke(ctx, "createFile",
                                                ("tmp/viadns.txt", 10)))
        path = f"{my_files(cluster)}/tmp/viadns.txt"
        cluster.run_async(client.names.unbind(path))
        with pytest.raises(NameNotFound):
            cluster.run_async(client.names.resolve(path))

    def test_bind_raises_the_file_services_refusal(self, cluster, client):
        ctx = cluster.run_async(client.names.resolve(my_files(cluster)))
        with pytest.raises(NotAContext, match="only binds files"):
            cluster.run_async(
                client.names.bind(f"{my_files(cluster)}/x", ctx))


class TestPersistence:
    def test_files_survive_service_restart(self):
        cluster = build_full_cluster(n_servers=2, seed=82)
        client = cluster.client_on(cluster.servers[0], name="fs-p")
        path = f"files/{cluster.servers[0].ip}"
        ctx = cluster.run_async(client.names.resolve(path))
        cluster.run_async(client.runtime.invoke(ctx, "createFile",
                                                ("keep/me.dat", 777)))
        cluster.kill_service(0, "fileservice")
        cluster.run_for(20.0)   # SSC restart + audit rebind of "files"
        ref = cluster.run_async(client.names.resolve(f"{path}/keep/me.dat"))
        blob = cluster.run_async(client.runtime.invoke(ref, "read", ()))
        assert blob.size == 777


class TestListHandoff:
    def test_list_through_name_service_path(self):
        """list() on a path crossing into the file service delegates."""
        cluster = build_full_cluster(n_servers=2, seed=83)
        client = cluster.client_on(cluster.servers[0], name="fs-l")
        path = f"files/{cluster.servers[0].ip}/etc"
        listing = cluster.run_async(client.names.list(path))
        names = [n for n, _k, _r in listing]
        assert "motd" in names

    def test_list_remote_root_via_leaf_binding(self):
        """Listing the file-service binding itself delegates to its root."""
        cluster = build_full_cluster(n_servers=2, seed=84)
        client = cluster.client_on(cluster.servers[0], name="fs-l2")
        listing = cluster.run_async(
            client.names.list(f"files/{cluster.servers[0].ip}"))
        names = [n for n, _k, _r in listing]
        assert "etc" in names and "content" in names
